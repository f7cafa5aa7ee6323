package lint_test

import (
	"testing"

	"filealloc/internal/lint"
)

// TestErrDrop proves discarded Send/Recv/Close/CloseAll/Stats results — and, in the
// recovery fixture, discarded checkpoint SaveRound/Latest/Seal/Validate/
// WriteFile/ReadFile results — are flagged in every discard position
// (expression statement, defer, go, blank assignment) while handled results
// and justified //fap:ignore suppressions pass.
func TestErrDrop(t *testing.T) {
	for _, tc := range []fixtureCase{
		{pkg: "transport", analyzer: lint.ErrDrop, wants: 6},
		{pkg: "recovery", analyzer: lint.ErrDrop, wants: 5},
	} {
		t.Run(tc.pkg, func(t *testing.T) { checkFixture(t, tc) })
	}
}
