package kernels

import (
	"regexp"
	"slices"
	"strings"
	"testing"
)

// likeRegexp is the reference LIKE: % is any run of characters, _ any one
// character, every other byte itself, and the pattern covers the whole
// string. regexp decodes a string into runes as a _ takes characters: one
// UTF-8 sequence, or one byte that starts none.
func likeRegexp(pattern string) *regexp.Regexp {
	var re strings.Builder
	re.WriteString(`(?s)^`)
	for _, c := range pattern {
		switch c {
		case '%':
			re.WriteString(`.*`)
		case '_':
			re.WriteString(`.`)
		default:
			re.WriteString(regexp.QuoteMeta(string(c)))
		}
	}
	re.WriteString(`$`)
	return regexp.MustCompile(re.String())
}

// onto maps every character of s that is not one of alphabet's to one that
// is, so that short inputs are dense in wildcards, repeats and near-misses,
// and a seed written in the alphabet stays as it is.
func onto(s string, alphabet ...string) string {
	var out strings.Builder
	for _, r := range s {
		c := string(r)
		if !slices.Contains(alphabet, c) {
			c = alphabet[int(r)%len(alphabet)]
		}
		out.WriteString(c)
	}
	return out.String()
}

// FuzzLike checks CompileLike/Match against likeRegexp over patterns of
// literals, NUL, % and _ (empty and repeated segments among them) and strings
// of ASCII, NUL and a two-byte character.
func FuzzLike(f *testing.F) {
	for _, seed := range [][2]string{
		{"%special%requests%", "a special x requests"},
		{"%%", ""}, {"a%%b", "ab"}, {"%a%a%", "aa"}, {"_%_", "a\x00"},
		{"ab%ab", "ab"}, {"%b_%", "ab\x00b"}, {"a_b%", "a\x00b"}, {"", ""},
		{"a\x00_", "abb"}, {"a\x00%b%a", "aabba"}, {"_", "é"}, {"a_b", "aéb"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, pattern, s string) {
		pattern, s = onto(pattern, "a", "b", "%", "_", "\x00"), onto(s, "a", "b", "\x00", "é")
		if got, want := CompileLike(pattern).Match([]byte(s)), likeRegexp(pattern).MatchString(s); got != want {
			t.Fatalf("%q LIKE %q = %v, want %v", s, pattern, got, want)
		}
	})
}
