package streamio

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzFieldsMatchStrings holds Fields to strings.Fields and ParseInt to
// strconv.ParseInt(s, 10, 64) on the same bytes: the same fields, the same
// numbers, the same rejections.
func FuzzFieldsMatchStrings(f *testing.F) {
	for _, s := range []string{
		"", " ", "i 0 1", " \t# c", "0\t1\r", "0\u00851 2　", "0\xc21", "0 1\xa0",
		"+1", "-0", "01", "-9223372036854775808", "9223372036854775808", "1_0", "0x1", "-", "+",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := strings.Fields(s)
		var got [3][]byte
		n := Fields([]byte(s), got[:])
		if n != len(want) {
			t.Fatalf("Fields(%q) counts %d, strings.Fields %d", s, n, len(want))
		}
		for i := range min(n, len(got)) {
			if string(got[i]) != want[i] {
				t.Fatalf("Fields(%q)[%d] = %q, strings.Fields %q", s, i, got[i], want[i])
			}
		}
		x, ok := ParseInt([]byte(s))
		y, err := strconv.ParseInt(s, 10, 64)
		if ok != (err == nil) || ok && x != y {
			t.Fatalf("ParseInt(%q) = %d, %v; strconv.ParseInt %d, %v", s, x, ok, y, err)
		}
	})
}
