package rules

import (
	"testing"
)

// FuzzParseRule asserts the rule parser never panics and successful
// parses are print/reparse stable.
func FuzzParseRule(f *testing.F) {
	seeds := []string{
		"RULE r ON S AS e THEN REPLACE p(e.k) = e.v",
		"RULE r ON SEQ(A AS a, NOT B, C AS c) WITHIN 5m WHERE a.k = c.k THEN EMIT O(k = a.k)",
		"RULE r ON ALL(A, B) THEN RETRACT p(1)",
		"RULE r ON ANY(A AS x, B AS x) WHEN EXISTS q(x.k) THEN ASSERT p(x.k) = 1 FROM now() UNTIL now() + 1h",
		"RULE",
		"RULE r ON",
		"RULE r ON S THEN",
		"rule lower on s as e then replace p(e.k) = 1",
		"RULE r ON S AS e THEN REPLACE p(e.k) = coalesce(p(e.k), 0) + 1, EMIT O(n = p(e.k))",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		r1, err := parseOne(src)
		if err != nil {
			return
		}
		printed := r1.String()
		r2, err := parseOne(printed)
		if err != nil {
			t.Fatalf("printed rule does not reparse: %q -> %q: %v", src, printed, err)
		}
		if r2.String() != printed {
			t.Fatalf("unstable print: %q -> %q -> %q", src, printed, r2.String())
		}
		// Compilation must not panic either (errors are fine).
		_, _ = NewSet(r1)
	})
}
