package load

import (
	"math/rand"
	"testing"
	"time"
)

func TestScenarioDefaults(t *testing.T) {
	s := Scenario{Name: "d", Rate: 500, Duration: Dur{time.Second}, Mix: map[string]int{OpState: 1}}
	d := s.withDefaults()
	if d.Workers != 8 || d.Blocks != 24 || d.Batch != 8 {
		t.Errorf("defaults: %+v", d)
	}
	if b := d.backlog(); b != 2000 { // 4 × peak rate
		t.Errorf("backlog %d", b)
	}
	low := Scenario{Name: "l", Rate: 10, Duration: Dur{time.Second}, Mix: map[string]int{OpState: 1}}
	if b := low.backlog(); b != 1024 { // floor
		t.Errorf("backlog floor %d", b)
	}
}

// TestMixTableDeterminism: the same seed yields the same op sequence —
// runs are reproducible — and the picks respect the declared weights.
func TestMixTableDeterminism(t *testing.T) {
	mix := map[string]int{OpCheckin: 30, OpReport: 10, OpChurn: 60}
	tab := newMixTable(mix)
	seq := func() []string {
		rng := rand.New(rand.NewSource(99))
		out := make([]string, 5000)
		for i := range out {
			out[i] = tab.pick(rng.Intn(tab.total))
		}
		return out
	}
	a, b := seq(), seq()
	counts := map[string]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pick %d diverged: %s vs %s", i, a[i], b[i])
		}
		counts[a[i]]++
	}
	for class, w := range mix {
		want := float64(w) / 100 * float64(len(a))
		got := float64(counts[class])
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("%s: %v picks, weight says ~%v", class, got, want)
		}
	}
	if tab.pick(0) != OpCheckin { // sorted classes: checkin, churn, report
		t.Errorf("first pick %q", tab.pick(0))
	}
}

func TestPresets(t *testing.T) {
	for _, name := range []string{"smoke", "soak"} {
		s, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.withDefaults().validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
		if s.Name != name {
			t.Errorf("preset %s named %q", name, s.Name)
		}
	}
	if _, err := Preset("nope"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestComputeRecovery(t *testing.T) {
	kill := 5 * time.Second
	wall := 10 * time.Second
	samples := []writeSample{
		{due: time.Second, lat: 2 * time.Millisecond, ok: true},                // pre-kill, ignored
		{due: 4900 * time.Millisecond, lat: 400 * time.Millisecond, ok: false}, // in-flight at kill, fails
		{due: 5100 * time.Millisecond, lat: 900 * time.Millisecond, ok: true},  // slow during outage
		{due: 6500 * time.Millisecond, lat: 3 * time.Millisecond, ok: true},    // recovered
		{due: 9 * time.Second, lat: 2 * time.Millisecond, ok: true},            // still fine
	}
	rec, ok := computeRecovery(samples, kill, wall, 500)
	if !ok {
		t.Fatal("should be recovered")
	}
	// Last violation completes at 5.1s+0.9s = 6.0s → 1000ms after the kill.
	if rec != 1000 {
		t.Errorf("recovery %vms", rec)
	}
	// A violation running into the final second means not recovered.
	tail := append(samples, writeSample{due: 9800 * time.Millisecond, lat: 600 * time.Millisecond, ok: true})
	if _, ok := computeRecovery(tail, kill, wall, 500); ok {
		t.Error("tail violation reported as recovered")
	}
	// No violations at all: zero recovery time.
	if rec, ok := computeRecovery(samples[:1], kill, wall, 500); rec != 0 || !ok {
		t.Errorf("clean run: rec=%v ok=%v", rec, ok)
	}
}
