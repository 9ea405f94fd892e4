package cluster

import "testing"

func TestHostOf(t *testing.T) {
	if hostOf(2<<40|77) != 2 || hostOf(7) != 0 {
		t.Fatal("hostOf miscomputes")
	}
}
