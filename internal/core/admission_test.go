package core

import (
	"context"
	"math"
	"sync"
	"testing"
)

// TestGovernorTryAdmit covers the non-blocking probe: reservations that
// fit succeed and are visible in InUse, reservations that would wait are
// refused without blocking, and oversized requests are refused rather than
// clamped (unlike admit, which clamps so a lone oversized stage can run).
func TestGovernorTryAdmit(t *testing.T) {
	g := NewGovernor(1000)

	rel1, ok := g.TryAdmit(600)
	if !ok {
		t.Fatalf("TryAdmit(600) on an empty governor: ok=false, want true")
	}
	if got := g.InUse(); got != 600 {
		t.Fatalf("InUse after TryAdmit(600) = %d, want 600", got)
	}

	if _, ok := g.TryAdmit(600); ok {
		t.Fatalf("TryAdmit(600) with 600 in use under budget 1000: ok=true, want refusal")
	}
	// A request near MaxInt64 is refused too: inUse+bytes would wrap.
	if _, ok := g.TryAdmit(math.MaxInt64); ok {
		t.Fatalf("TryAdmit(MaxInt64) with 600 in use: ok=true, want refusal")
	}
	if got := g.InUse(); got != 600 {
		t.Fatalf("refused TryAdmit perturbed InUse: got %d, want 600", got)
	}

	// Oversized requests are refused, not clamped.
	g2 := NewGovernor(100)
	if _, ok := g2.TryAdmit(101); ok {
		t.Fatalf("TryAdmit(101) against budget 100: ok=true, want refusal (no clamping)")
	}

	rel1()
	if got := g.InUse(); got != 0 {
		t.Fatalf("InUse after release = %d, want 0", got)
	}

	// The release closure is idempotent: double release cannot free bytes
	// another admission now owns.
	rel2, ok := g.TryAdmit(1000)
	if !ok {
		t.Fatalf("TryAdmit(1000) after release: ok=false, want true")
	}
	rel1() // stale second call of the first release
	if got := g.InUse(); got != 1000 {
		t.Fatalf("stale double-release drove InUse to %d, want 1000", got)
	}
	rel2()
	if got := g.InUse(); got != 0 {
		t.Fatalf("InUse after final release = %d, want 0", got)
	}
}

// TestGovernorTryAdmitInert verifies nil and zero-budget governors admit
// everything without accounting.
func TestGovernorTryAdmitInert(t *testing.T) {
	var nilGov *Governor
	if rel, ok := nilGov.TryAdmit(1 << 30); !ok {
		t.Fatalf("nil governor refused TryAdmit")
	} else {
		rel()
	}
	g := NewGovernor(0)
	rel, ok := g.TryAdmit(1 << 30)
	if !ok {
		t.Fatalf("inert governor refused TryAdmit")
	}
	rel()
	if got := g.InUse(); got != 0 {
		t.Fatalf("inert governor accounted bytes: InUse=%d", got)
	}
}

// TestGovernorReleaseUnderflowGuard is the regression test for release()
// over-release: more bytes released than were ever admitted must clamp
// InUse at zero, never drive it negative — a negative InUse would
// inflate Available past the budget and let later admissions overshoot.
func TestGovernorReleaseUnderflowGuard(t *testing.T) {
	g := NewGovernor(1000)
	if _, err := g.admit(context.Background(), 300); err != nil {
		t.Fatalf("admit: %v", err)
	}
	g.release(500) // buggy caller: releases more than admitted
	if got := g.InUse(); got != 0 {
		t.Fatalf("InUse after over-release = %d, want clamp at 0", got)
	}
	if avail := g.Available(); avail != 1000 {
		t.Fatalf("Available after over-release = %d, want 1000 (budget)", avail)
	}
	g.release(100) // release with nothing admitted at all
	if got := g.InUse(); got != 0 {
		t.Fatalf("InUse after spurious release = %d, want 0", got)
	}
	// The budget guarantee still holds afterwards.
	if _, ok := g.TryAdmit(1001); ok {
		t.Fatalf("over-release widened the budget: TryAdmit(1001) succeeded")
	}
	rel, ok := g.TryAdmit(1000)
	if !ok {
		t.Fatalf("full-budget TryAdmit refused after over-release recovery")
	}
	rel()
}

// TestGovernorTryAdmitConcurrent races TryAdmit/release pairs and checks
// the budget invariant under -race: InUse never exceeds the budget and
// returns to zero once every release ran.
func TestGovernorTryAdmitConcurrent(t *testing.T) {
	const budget = 64
	g := NewGovernor(budget)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				rel, ok := g.TryAdmit(8)
				if !ok {
					continue
				}
				if in := g.InUse(); in > budget {
					t.Errorf("InUse %d exceeded budget %d", in, budget)
				}
				rel()
			}
		}()
	}
	wg.Wait()
	if got := g.InUse(); got != 0 {
		t.Fatalf("InUse after all releases = %d, want 0", got)
	}
	if hw := g.HighWater(); hw > budget {
		t.Fatalf("HighWater %d exceeded budget %d", hw, budget)
	}
}
