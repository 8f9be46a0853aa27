package retry

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestZeroPolicySingleAttempt(t *testing.T) {
	calls := 0
	errBoom := errors.New("boom")
	err := Policy{}.Do(context.Background(), func() error { calls++; return errBoom })
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want %v", err, errBoom)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

func TestDoRetriesThenSucceeds(t *testing.T) {
	calls := 0
	p := Policy{MaxAttempts: 5, BaseDelay: time.Microsecond}
	err := p.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestDoExhaustsBudget(t *testing.T) {
	calls := 0
	errBoom := errors.New("boom")
	p := Policy{MaxAttempts: 4, BaseDelay: time.Microsecond}
	err := p.Do(context.Background(), func() error { calls++; return errBoom })
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want %v", err, errBoom)
	}
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
}

func TestPermanentStopsImmediately(t *testing.T) {
	calls := 0
	errBad := errors.New("bad spec")
	p := Policy{MaxAttempts: 5, BaseDelay: time.Microsecond}
	err := p.Do(context.Background(), func() error { calls++; return Permanent(errBad) })
	if !errors.Is(err, errBad) {
		t.Fatalf("err = %v, want %v", err, errBad)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	var pe *permanentError
	if errors.As(err, &pe) {
		t.Fatal("Do should unwrap the Permanent marker")
	}
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) must be nil")
	}
	if !errors.As(Permanent(errBad), &pe) {
		t.Fatal("Permanent(err) must carry the marker")
	}
}

func TestContextCancelCutsLoop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	p := Policy{MaxAttempts: 100, BaseDelay: time.Hour}
	done := make(chan error, 1)
	go func() {
		done <- p.Do(ctx, func() error { calls++; return errors.New("transient") })
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not return after cancellation")
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (cancelled during first backoff)", calls)
	}
}

func TestContextErrorFromFnNotRetried(t *testing.T) {
	calls := 0
	p := Policy{MaxAttempts: 5, BaseDelay: time.Microsecond}
	err := p.Do(context.Background(), func() error { calls++; return context.Canceled })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (cancellation is not transient)", calls)
	}
}

func TestDelayDoublesAndCaps(t *testing.T) {
	p := Policy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 45 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 45, 45}
	for i, w := range want {
		if got := p.Delay(i); got != w*time.Millisecond {
			t.Fatalf("Delay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	if got := (Policy{}).Delay(3); got != 0 {
		t.Fatalf("zero-policy Delay = %v, want 0", got)
	}
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	a := Policy{BaseDelay: time.Second, MaxDelay: time.Second, Jitter: 0.5, Seed: 42}
	b := Policy{BaseDelay: time.Second, MaxDelay: time.Second, Jitter: 0.5, Seed: 42}
	c := Policy{BaseDelay: time.Second, MaxDelay: time.Second, Jitter: 0.5, Seed: 43}
	diff := false
	for i := 0; i < 16; i++ {
		da, db, dc := a.Delay(i), b.Delay(i), c.Delay(i)
		if da != db {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, da, db)
		}
		if da > time.Second || da < time.Second/2 {
			t.Fatalf("Delay(%d) = %v outside [500ms, 1s] for jitter 0.5", i, da)
		}
		if da != dc {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical jitter streams")
	}
}
