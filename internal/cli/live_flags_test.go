package cli

import (
	"os"
	"strings"
	"testing"
)

// TestLiveFlagValidation pins the live plane's CLI contract: every
// nonsensical flag combination fails loudly, naming the offending
// flags, instead of being silently ignored or half-applied.
func TestLiveFlagValidation(t *testing.T) {
	t.Run("query", func(t *testing.T) {
		cases := []struct {
			name    string
			args    []string
			wantErr string // substring the stderr message must contain
		}{
			{"follow without serve", []string{"-follow"},
				"-follow needs -serve"},
			{"serve without follow", []string{"-serve", "http://localhost:8080"},
				"needs -follow"},
			{"query without follow", []string{"-query", "hot"},
				"needs -follow"},
			{"follow with db", []string{"-follow", "-serve", "http://x", "-db", "a.topk"},
				"-db does not apply with -follow"},
			{"follow with csv", []string{"-follow", "-serve", "http://x", "-csv", "a.csv"},
				"-csv does not apply with -follow"},
			{"follow with owners", []string{"-follow", "-serve", "http://x", "-owners", "http://y"},
				"-owners does not apply with -follow"},
			{"follow with alg", []string{"-follow", "-serve", "http://x", "-alg", "ta"},
				"-alg does not apply with -follow"},
			{"follow with compare", []string{"-follow", "-serve", "http://x", "-compare"},
				"-compare does not apply with -follow"},
			{"follow with dist", []string{"-follow", "-serve", "http://x", "-dist"},
				"-dist does not apply with -follow"},
			{"follow with explain", []string{"-follow", "-serve", "http://x", "-explain"},
				"-explain does not apply with -follow"},
			{"follow with policy", []string{"-follow", "-serve", "http://x", "-policy", "fastest"},
				"-policy does not apply with -follow"},
			{"follow with restart", []string{"-follow", "-serve", "http://x", "-restart", "failed"},
				"-restart does not apply with -follow"},
			{"follow with bad protocol", []string{"-follow", "-serve", "http://x", "-protocol", "zzz"},
				"protocol"},
			{"follow with bad url", []string{"-follow", "-serve", "not-a-url"},
				"URL"},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				code, _, errOut := capture(t, queryEntry, tc.args...)
				if code == 0 {
					t.Fatalf("args %v accepted", tc.args)
				}
				if !strings.Contains(errOut, tc.wantErr) {
					t.Fatalf("stderr %q does not mention %q", errOut, tc.wantErr)
				}
			})
		}
	})

	t.Run("owner mutable with stripe", func(t *testing.T) {
		_, _, err := BuildOwnerHandler([]string{"-stripe", "a.stripe", "-mutable"}, os.Stderr)
		if err == nil {
			t.Fatal("-mutable with -stripe accepted")
		}
		for _, want := range []string{"-mutable", "-stripe", "read-only"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		}
	})

	t.Run("serve live without owners", func(t *testing.T) {
		var stderr strings.Builder
		_, _, err := BuildServeHandler([]string{"-gen", "uniform", "-n", "20", "-m", "2", "-live"}, &stderr)
		if err == nil {
			t.Fatal("-live without -owners accepted")
		}
		for _, want := range []string{"-live", "-owners"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		}
	})
}
