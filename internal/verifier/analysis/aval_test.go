package analysis

import "testing"

func TestAValJoin(t *testing.T) {
	g := int64(4096)
	cases := []struct {
		a, b, want AVal
	}{
		{DPtr(0, 0), DPtr(-8, -8), DPtr(-8, 0)},
		{DPtr(0, 0), Top, Top},
		{Const(1, 1), Const(5, 5), Const(1, 5)},
		{DPtr(0, 0), Const(0, 0), Top},
		{DPtr(0, 0), DPtr(3*g, 3*g), Top}, // widened
	}
	for i, c := range cases {
		if got := c.a.Join(c.b, 2*g); got != c.want {
			t.Errorf("case %d: %v ⊔ %v = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}
