// Package trace reads memory-address traces, the interchange
// format of the dxtrace tool: one address per line, decimal or 0x-hex,
// with '#' comments and blank lines ignored. It also captures traces from
// running vector-machine programs so that real algorithm patterns can be
// replayed through the simulator, the way the paper replays patterns
// extracted from the connected-components code.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Read parses one address per line, decimal or 0x-prefixed hex. Blank
// lines and lines starting with '#' are skipped.
func Read(r io.Reader) ([]uint64, error) {
	var addrs []uint64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		base := 10
		if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
			s, base = s[2:], 16
		}
		v, err := strconv.ParseUint(s, base, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		addrs = append(addrs, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %v", err)
	}
	return addrs, nil
}
