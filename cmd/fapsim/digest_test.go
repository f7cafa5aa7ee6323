package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestCSVOutputDigests pins the exact bytes of `fapsim -csv <exp>` for the
// experiments that drive the solver kernels (cold, warm, second-order,
// decentralized, multi-copy, price-directed and neighbor). Costs print at
// full shortest-repr precision, so any change to a trajectory — one
// ulp anywhere — changes the digest. The outputs are independent of
// -workers, so both a serial and a parallel run must match.
//
// A refactor of the solvers must leave every digest unchanged; a deliberate
// change to an experiment's output must re-record its digest here and say
// why.
func TestCSVOutputDigests(t *testing.T) {
	digests := []struct{ exp, sha256 string }{
		{"fig3", "0b6ada18373cc4913790e603cf32870e63f6ef6f763cc17cb09fd639acec0be3"},
		{"fig4", "be43017a7d7cd87af20a9c9a546451c4044f5c616ba942f7620e67c90bb222e3"},
		{"fig5", "ff7b36c629249842e0a1b1b80e44f16a0fa764e40830151e49c5aa414c5f9981"},
		{"fig6", "d141792f6f8029062d310f31f7af25c943d1db8c996a7181dd15540874038bb1"},
		{"fig8", "1ca25edbc7b56a1855d00516f15f7783b81541d07c8b7f18bed6679ddcf43cb2"},
		{"fig9", "4a3102e7da9260d0331cf83ad037e2b5d81d944012fa5aa1b27b27ba5169d5a8"},
		{"second-order", "4e66f2f2e39530c37e2bbf59a02e2526572733a4ff7d9a9d293f15fa30ecd4d0"},
		{"decentralized", "b52c570da629d7d2b21a3633589946d20d7c3c84710442addae0e3d9f5006c67"},
		{"copies", "4ce687c100cc69661197b6f7a1053a660c6bfe30ce60c1a6b31040c621031fc0"},
		{"price-directed", "de044e87f86b5eef0d5a467ff4ac56ccf2f126b409d65a1a82c07aacbc638a67"},
		{"neighbor", "447121e9dbb6ef72a79796a16191ab15473f2adc008aa8b112a97834d2a64cc2"},
	}
	for _, d := range digests {
		exp, want := d.exp, d.sha256
		for _, workers := range []string{"1", "4"} {
			t.Run(exp+"/workers="+workers, func(t *testing.T) {
				var b strings.Builder
				if err := run([]string{"-csv", "-workers", workers, exp}, &b); err != nil {
					t.Fatalf("run: %v", err)
				}
				sum := sha256.Sum256([]byte(b.String()))
				if got := hex.EncodeToString(sum[:]); got != want {
					t.Errorf("sha256 = %s, want %s\noutput:\n%s", got, want, b.String())
				}
			})
		}
	}
}
