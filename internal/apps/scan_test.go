package apps

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// mapWords runs wordCountMap and returns the emitted keys.
func mapWords(t *testing.T, s string) []string {
	t.Helper()
	var got []string
	err := wordCountMap(nil, []byte(s), func(key string, value []byte) error {
		if string(value) != "1" {
			t.Fatalf("word %q emitted with value %q", key, value)
		}
		got = append(got, key)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// scanAlphabet mixes ASCII and Unicode whitespace, non-space runes and
// bytes that are not valid UTF-8 on their own.
var scanAlphabet = []string{
	" ", "\t", "\n", "\r", "\v", "\f", "\u0085", "\u00a0", "\u2028", "\u3000", "\u200b",
	"a", "Z", "7", "é", "世", "\U0001F600", "\xff", "\xc2", "\xe3\x80", "\x85", "\xa0",
}

func TestWordCountMapMatchesFields(t *testing.T) {
	cases := []string{
		"", " ", "word", "  leading", "trailing  ", "\tboth\n",
		"a\vb\fc", "a\u0085b c", "a\u00a0b\u2028c\u3000d",
		"\u3000\u3000x\u3000", "bad\xffutf8 \xc2 \xe3\x80\x80z",
		"\xc2\x85x", // U+0085 encoded: a space
		"\x85x",     // a lone continuation byte: not a space
	}
	for _, s := range cases {
		if got, want := mapWords(t, s), strings.Fields(s); !slices.Equal(got, want) {
			t.Errorf("wordCountMap(%q) = %q, strings.Fields = %q", s, got, want)
		}
	}
	gen := func(vals []reflect.Value, r *rand.Rand) {
		var b strings.Builder
		for n := r.Intn(40); n > 0; n-- {
			b.WriteString(scanAlphabet[r.Intn(len(scanAlphabet))])
		}
		vals[0] = reflect.ValueOf(b.String())
	}
	f := func(s string) bool { return slices.Equal(mapWords(t, s), strings.Fields(s)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 5000, Values: gen}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitLinesSkipsEmptyLines(t *testing.T) {
	for _, s := range []string{"", "\n", "a", "a\n", "\na\n\nb", "a\r\n\n\nb\n", "\n\n"} {
		var got []string
		if err := splitLines([]byte(s), func(line string) error {
			got = append(got, line)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, line := range strings.Split(s, "\n") {
			if line != "" {
				want = append(want, line)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("splitLines(%q) = %q, want %q", s, got, want)
		}
	}
}
