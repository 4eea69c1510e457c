package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestMain doubles as the sweep helper process: re-exec'ing the test
// binary with DXBENCH_HELPER=1 turns it into dxbench, which lets the
// kill -9 test SIGKILL a real shard process (a chaos kill=N shard
// SIGKILLs itself; an in-process run() would take the test down with it).
func TestMain(m *testing.M) {
	if os.Getenv("DXBENCH_HELPER") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// helperCmd builds a real dxbench process from the test binary.
func helperCmd(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DXBENCH_HELPER=1")
	return cmd
}

// Satellite: misconfigured sweeps fail loudly with exit 1, never run zero
// points and report success.
func TestSweepUsageErrors(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"-quick", "-checkpoint", dir, "-shard", "0/0"},
		{"-quick", "-checkpoint", dir, "-shard", "4/4"},
		{"-quick", "-checkpoint", dir, "-shard", "-1/4"},
		{"-quick", "-checkpoint", dir, "-shard", "nonsense"},
		{"-quick", "-shard", "0/4"},                                    // requires -checkpoint
		{"-quick", "-checkpoint", dir, "-shard", "0/4", "-merge", dir}, // exclusive
		{"-quick", "-checkpoint", dir, "-shard", "0/4", "-metrics"},    // metrics need full run
		{"-merge", filepath.Join(dir, "empty")},                        // nothing to merge
	}
	for _, args := range cases {
		if _, errOut, code := runBench(t, args...); code != exitHard {
			t.Errorf("%v: exit %d, want %d\nstderr: %s", args, code, exitHard, errOut)
		}
	}
	// Flags and chaos keys dxbench does not define are usage errors that
	// name them, with nothing rendered.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-coordinate"}, "-coordinate"},
		{[]string{"-worker"}, "-worker"},
		{[]string{"-worker-id", "a"}, "-worker-id"},
		{[]string{"-lease-ttl", "1s"}, "-lease-ttl"},
		{[]string{"-chunk", "4"}, "-chunk"},
		{[]string{"-chaos", "stallhb=1"}, `faults: unknown key "stallhb"`},
	} {
		args := append([]string{"-quick", "-experiment", "T1", "-checkpoint", dir}, tc.args...)
		out, errOut, code := runBench(t, args...)
		if code != exitHard {
			t.Errorf("%v: exit %d, want %d\nstderr: %s", tc.args, code, exitHard, errOut)
		}
		if !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: stderr does not name %s:\n%s", tc.args, tc.want, errOut)
		}
		if out != "" {
			t.Errorf("%v: rendered output despite the error", tc.args)
		}
	}
}

// Resuming a shard journal under a different shard spec or sweep
// configuration is a hard error, not a silent zero-point success.
func TestShardResumeMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, errOut, code := runBench(t, "-quick", "-experiment", "F6", "-checkpoint", dir, "-shard", "0/4"); code != exitOK {
		t.Fatalf("shard run exit %d: %s", code, errOut)
	}
	// Same shard file cannot be resumed under different sweep flags (the
	// fingerprint covers scale, seed and the experiment set).
	if _, errOut, code := runBench(t, "-quick", "-experiment", "F7", "-checkpoint", dir, "-shard", "0/4", "-resume"); code != exitHard {
		t.Errorf("mismatched resume: exit %d, want %d\nstderr: %s", code, exitHard, errOut)
	} else if !strings.Contains(errOut, "journal header mismatch") {
		t.Errorf("mismatched resume stderr:\n%s", errOut)
	}
	// The matching spec resumes cleanly and re-executes nothing.
	_, errOut, code := runBench(t, "-quick", "-experiment", "F6", "-checkpoint", dir, "-shard", "0/4", "-resume")
	if code != exitOK {
		t.Fatalf("matching resume exit %d: %s", code, errOut)
	}
	if !strings.Contains(errOut, " 0 sim(s) journaled") {
		t.Errorf("resumed shard re-executed simulations:\n%s", errOut)
	}
}

// lastEvent returns the last event line of the given type from a
// JSON-lines event log.
func lastEvent(t *testing.T, path, typ string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	found := ""
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, `"`+typ+`"`) {
			found = line
		}
	}
	if found == "" {
		t.Fatalf("no %s event in %s:\n%s", typ, path, data)
	}
	return found
}

// Phase 1 differential proof: a 4-way static shard of the expansion study,
// merged and resumed, renders byte-identical output to the single-process
// run while re-executing zero simulations. The batch4 variant runs the
// same drill with -batch 4 on every shard and on the resume: lockstep
// batching composes with sharding and checkpoint restore without moving
// a byte.
func TestShardMergeResumeByteIdentical(t *testing.T) {
	single, _, code := runBench(t, "-quick", "-experiment", "F6")
	if code != exitOK {
		t.Fatalf("single-process exit %d", code)
	}

	for _, tc := range []struct {
		name  string
		extra []string
	}{
		{"unbatched", nil},
		{"batch4", []string{"-batch", "4"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for i := 0; i < 4; i++ {
				args := append([]string{"-quick", "-experiment", "F6", "-checkpoint", dir, "-shard", fmt.Sprintf("%d/4", i)}, tc.extra...)
				if _, errOut, code := runBench(t, args...); code != exitOK {
					t.Fatalf("shard %d exit %d: %s", i, code, errOut)
				}
			}
			mergeOut, _, code := runBench(t, "-merge", dir)
			if code != exitOK {
				t.Fatalf("merge exit %d", code)
			}
			if !strings.Contains(mergeOut, "from 4 journal(s)") {
				t.Errorf("merge summary:\n%s", mergeOut)
			}

			ev := filepath.Join(t.TempDir(), "ev.json")
			args := append([]string{"-quick", "-experiment", "F6", "-checkpoint", dir, "-resume", "-events", ev}, tc.extra...)
			merged, _, code := runBench(t, args...)
			if code != exitOK {
				t.Fatalf("resume exit %d", code)
			}
			if merged != single {
				t.Errorf("merged output differs from single-process:\n--- single ---\n%s\n--- merged ---\n%s", single, merged)
			}
			runDone := lastEvent(t, ev, "run_done")
			if strings.Contains(runDone, `"cache_misses"`) {
				t.Errorf("resume from merged journal re-executed simulations: %s", runDone)
			}
			if !strings.Contains(runDone, `"checkpoint_restored"`) {
				t.Errorf("resume restored nothing: %s", runDone)
			}
		})
	}
}

// Crash tolerance of a static-shard sweep, on real processes: shard 3 of
// 4 SIGKILLs itself (chaos kill=2) after two journal appends, is resumed
// from its own journal with -resume, and the merged render must equal the
// single-process output byte for byte with no journaled sim re-executed.
func TestShardSurvivesKilledShard(t *testing.T) {
	single, _, code := runBench(t, "-quick", "-experiment", "F6")
	if code != exitOK {
		t.Fatalf("single-process exit %d", code)
	}
	dir := t.TempDir()
	shard := func(i int, extra ...string) []string {
		return append([]string{"-quick", "-experiment", "F6", "-checkpoint", dir, "-shard", fmt.Sprintf("%d/4", i)}, extra...)
	}
	for i := 0; i < 3; i++ {
		if _, errOut, code := runBench(t, shard(i)...); code != exitOK {
			t.Fatalf("shard %d exit %d: %s", i, code, errOut)
		}
	}

	victim := helperCmd(t, shard(3, "-chaos", "kill=2")...)
	var victimErr strings.Builder
	victim.Stderr = &victimErr
	err := victim.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("shard 3 was not killed: err=%v stderr=%s", err, victimErr.String())
	}
	if ws, ok := ee.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("shard 3 died of %v, want SIGKILL", ee)
	}

	// The resumed shard serves the victim's two journaled sims from its
	// journal and runs only the rest.
	_, errOut, code := runBench(t, shard(3, "-resume")...)
	if code != exitOK {
		t.Fatalf("resumed shard exit %d: %s", code, errOut)
	}
	if !strings.Contains(errOut, " 2 restored") {
		t.Errorf("resumed shard did not restore the killed run's records:\n%s", errOut)
	}
	if _, errOut, code := runBench(t, "-merge", dir); code != exitOK {
		t.Fatalf("merge exit %d: %s", code, errOut)
	}

	ev := filepath.Join(t.TempDir(), "ev.json")
	merged, errOut, code := runBench(t, "-quick", "-experiment", "F6", "-checkpoint", dir, "-resume", "-events", ev)
	if code != exitOK {
		t.Fatalf("render exit %d: %s", code, errOut)
	}
	if merged != single {
		t.Errorf("render after kill and resume differs from single-process:\n--- single ---\n%s\n--- merged ---\n%s", single, merged)
	}
	runDone := lastEvent(t, ev, "run_done")
	if strings.Contains(runDone, `"cache_misses"`) {
		t.Errorf("render re-executed journaled sims: %s", runDone)
	}
	if !strings.Contains(runDone, `"checkpoint_restored"`) {
		t.Errorf("render restored nothing: %s", runDone)
	}
}
