package partition

import (
	"testing"
	"testing/quick"
)

func TestSplitRowsBasic(t *testing.T) {
	rs := SplitRows(10, 3)
	if len(rs) != 3 {
		t.Fatalf("got %d ranges", len(rs))
	}
	want := []Range{{0, 4}, {4, 7}, {7, 10}}
	for i, r := range rs {
		if r != want[i] {
			t.Errorf("range %d = %v, want %v", i, r, want[i])
		}
	}
}

func TestSplitRowsProperties(t *testing.T) {
	f := func(n, p uint8) bool {
		nn := int(n)
		pp := int(p)%16 + 1
		rs := SplitRows(nn, pp)
		if len(rs) != pp {
			return false
		}
		// Contiguous cover of [0, n), sizes differ by at most 1.
		lo := 0
		minSz, maxSz := 1<<30, -1
		for _, r := range rs {
			if r.Lo != lo || r.Hi < r.Lo {
				return false
			}
			lo = r.Hi
			if r.Len() < minSz {
				minSz = r.Len()
			}
			if r.Len() > maxSz {
				maxSz = r.Len()
			}
		}
		return lo == nn && maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSplitRowsPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SplitRows(5, 0)
}

func TestAssignProportional(t *testing.T) {
	got := Assign([]float64{70, 20, 10}, 10)
	if got[0]+got[1]+got[2] != 10 {
		t.Fatalf("assignments %v do not sum to 10", got)
	}
	if got[0] < got[1] || got[1] < got[2] {
		t.Errorf("assignments %v not ordered by work", got)
	}
	for i, g := range got {
		if g < 1 {
			t.Errorf("grid %d starved: %v", i, got)
		}
	}
}

func TestAssignAtLeastOneEach(t *testing.T) {
	// Extreme skew still leaves one thread on the tiny grid.
	got := Assign([]float64{1e9, 1}, 8)
	if got[1] < 1 {
		t.Errorf("tiny grid starved: %v", got)
	}
	if got[0]+got[1] != 8 {
		t.Errorf("sum wrong: %v", got)
	}
}

func TestAssignFewerThreadsThanGrids(t *testing.T) {
	got := Assign([]float64{5, 50, 10}, 2)
	sum := 0
	for _, g := range got {
		sum += g
	}
	if sum != 2 {
		t.Fatalf("sum = %d, want 2", sum)
	}
	if got[1] != 1 {
		t.Errorf("heaviest grid unassigned: %v", got)
	}
	if got[0] != 0 {
		t.Errorf("lightest grid should be unassigned: %v", got)
	}
}

func TestAssignZeroWork(t *testing.T) {
	got := Assign([]float64{0, 0, 0}, 7)
	sum := 0
	for _, g := range got {
		sum += g
		if g < 1 {
			t.Errorf("grid starved with zero work: %v", got)
		}
	}
	if sum != 7 {
		t.Errorf("sum = %d, want 7", sum)
	}
}

func TestAssignConservesThreads(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		g := int(seed%6) + 1
		nt := int(seed%20) + 1
		w := make([]float64, g)
		for i := range w {
			w[i] = float64((seed+int64(i)*17)%100) + 1
		}
		got := Assign(w, nt)
		sum := 0
		for _, x := range got {
			sum += x
		}
		if sum != nt {
			return false
		}
		if nt >= g {
			for _, x := range got {
				if x < 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAssignEmpty(t *testing.T) {
	if got := Assign(nil, 5); len(got) != 0 {
		t.Errorf("Assign(nil) = %v", got)
	}
	got := Assign([]float64{3, 4}, 0)
	if got[0] != 0 || got[1] != 0 {
		t.Errorf("Assign with 0 threads = %v", got)
	}
}
