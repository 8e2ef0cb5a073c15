package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsBadFlagsAtStartup pins the startup validation: a negative
// -host-workers would fail every admitted (and journaled) job at
// core.Config.Validate, so run() must refuse it before it opens the store
// or the journal.
func TestRunRejectsBadFlagsAtStartup(t *testing.T) {
	args, cl := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = args, cl })

	for _, bad := range []string{"-host-workers"} {
		storeDir := filepath.Join(t.TempDir(), "store")
		journal := filepath.Join(t.TempDir(), "journal.wal")
		flag.CommandLine = flag.NewFlagSet("airshedd", flag.ContinueOnError)
		os.Args = []string{"airshedd", "-addr", "127.0.0.1:0", "-store", storeDir, "-journal", journal, bad, "-1"}

		err := run()
		if err == nil || !strings.Contains(err.Error(), bad+" must be >= 0") {
			t.Fatalf("%s -1: run() = %v, want a one-line flag error", bad, err)
		}
		for _, path := range []string{storeDir, journal} {
			if _, serr := os.Stat(path); !os.IsNotExist(serr) {
				t.Errorf("%s -1: %s exists — run() opened it before validating flags", bad, path)
			}
		}
	}
}
