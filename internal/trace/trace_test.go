package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadBasic(t *testing.T) {
	in := "# header\n1\n2\n\n0x10\n0XFF\n  7  \n"
	got, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 2, 16, 255, 7}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("addr %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

func TestReadErrors(t *testing.T) {
	for _, in := range []string{"abc\n", "1\n-2\n", "0xZZ\n"} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestReadEmpty(t *testing.T) {
	got, err := Read(strings.NewReader("# only comments\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %v", got)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := func(addrs []uint64) bool {
		var b strings.Builder
		if err := write(&b, "round\ntrip", addrs); err != nil {
			return false
		}
		got, err := Read(strings.NewReader(b.String()))
		if err != nil {
			return false
		}
		if len(got) != len(addrs) {
			return false
		}
		for i := range addrs {
			if got[i] != addrs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWriteCommentEscaping(t *testing.T) {
	var b strings.Builder
	if err := write(&b, "line1\nline2", []uint64{5}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# line1\n# line2\n5\n") {
		t.Errorf("output = %q", out)
	}
}

// write emits addrs one per line in decimal, with an optional comment
// header.
func write(w io.Writer, comment string, addrs []uint64) error {
	bw := bufio.NewWriter(w)
	if comment != "" {
		for _, ln := range strings.Split(comment, "\n") {
			if _, err := fmt.Fprintf(bw, "# %s\n", ln); err != nil {
				return err
			}
		}
	}
	for _, a := range addrs {
		if _, err := fmt.Fprintln(bw, a); err != nil {
			return err
		}
	}
	return bw.Flush()
}
