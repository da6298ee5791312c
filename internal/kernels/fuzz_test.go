package kernels

import (
	"regexp"
	"strings"
	"testing"
)

// likeRegexp is the reference LIKE: % is any run of bytes, _ any one byte,
// every other byte itself, and the pattern covers the whole string. Over an
// ASCII alphabet (NUL included) a regexp rune is one byte.
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

// onto maps every byte of s into alphabet, so that short inputs are dense in
// wildcards, repeats and near-misses.
func onto(s, alphabet string) string {
	out := []byte(s)
	for i, c := range out {
		out[i] = alphabet[int(c)%len(alphabet)]
	}
	return string(out)
}

// FuzzLike checks CompileLike/Match against likeRegexp over patterns of
// literals, % and _ (empty and repeated segments among them) and strings
// that contain NUL bytes, the byte a _ compiles to.
func FuzzLike(f *testing.F) {
	for _, seed := range [][2]string{
		{"%special%requests%", "a special x requests"},
		{"%%", ""}, {"a%%b", "ab"}, {"%a%a%", "aa"}, {"_%_", "a\x00"},
		{"ab%ab", "ab"}, {"%b_%", "ab\x00b"}, {"a_b%", "a\x00b"}, {"", ""},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, pattern, s string) {
		pattern, s = onto(pattern, "ab%_"), onto(s, "ab\x00")
		if got, want := CompileLike(pattern).Match([]byte(s)), likeRegexp(pattern).MatchString(s); got != want {
			t.Fatalf("%q LIKE %q = %v, want %v", s, pattern, got, want)
		}
	})
}
