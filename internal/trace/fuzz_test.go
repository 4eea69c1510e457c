package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead exercises the trace parser on arbitrary input: it must never
// panic, and anything it accepts must round-trip through Write.
func FuzzRead(f *testing.F) {
	f.Add("1\n2\n3\n")
	f.Add("# comment\n0x10\n")
	f.Add("")
	f.Add("not a number")
	f.Add("0x")
	f.Add("18446744073709551615\n")
	f.Add("-1\n")
	f.Fuzz(func(t *testing.T, in string) {
		addrs, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		var b bytes.Buffer
		if err := write(&b, "", addrs); err != nil {
			t.Fatalf("Write failed on accepted input: %v", err)
		}
		back, err := Read(&b)
		if err != nil {
			t.Fatalf("round-trip Read failed: %v", err)
		}
		if len(back) != len(addrs) {
			t.Fatalf("round-trip length %d != %d", len(back), len(addrs))
		}
		for i := range addrs {
			if back[i] != addrs[i] {
				t.Fatalf("round-trip mismatch at %d", i)
			}
		}
	})
}
