package chaos

import (
	"reflect"
	"testing"

	"nocpu/internal/sim"
)

func ms(n int) sim.Duration { return sim.Duration(n) * sim.Millisecond }

func testPlan(seed uint64) Plan {
	return Plan{
		Seed:    seed,
		Start:   sim.Time(0).Add(ms(5)),
		Window:  ms(50),
		Crashes: 4,
		MinGap:  ms(8),
		Doubles: 1,
		Targets: []Target{
			{Name: "nic", Crash: func() {}},
			{Name: "ssd", Crash: func() {}},
			{Name: "memctrl", Crash: func() {}},
		},
	}
}

// Compile is a pure function of the plan: same seed, same timetable;
// different seed, different timetable.
func TestCompileDeterministic(t *testing.T) {
	a := testPlan(42).MustCompile()
	b := testPlan(42).MustCompile()
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatalf("same plan compiled differently:\n%v\nvs\n%v", a, b)
	}
	c := testPlan(43).MustCompile()
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatalf("different seeds compiled identically:\n%v", a)
	}
}

func TestCompileShape(t *testing.T) {
	p := testPlan(7)
	s := p.MustCompile()
	if len(s.Events) != p.Crashes {
		t.Fatalf("want %d events, got %d", p.Crashes, len(s.Events))
	}
	var prev sim.Time
	for i, ev := range s.Events {
		if ev.At < p.Start {
			t.Errorf("event %d at %v before window start %v", i, ev.At, p.Start)
		}
		if i > 0 && ev.At.Sub(prev) < p.MinGap {
			t.Errorf("events %d and %d only %v apart, MinGap %v", i-1, i, ev.At.Sub(prev), p.MinGap)
		}
		prev = ev.At
		want := 1
		if i < p.Doubles {
			want = 2
		}
		if len(ev.Targets) != want {
			t.Errorf("event %d has %d targets, want %d", i, len(ev.Targets), want)
		}
		if len(ev.Targets) == 2 && ev.Targets[0] == ev.Targets[1] {
			t.Errorf("event %d double-failure hit the same target twice", i)
		}
		for _, ti := range ev.Targets {
			if ti < 0 || ti >= len(p.Targets) {
				t.Errorf("event %d target index %d out of range", i, ti)
			}
		}
	}
}

func TestCompileRejectsBadPlans(t *testing.T) {
	for name, mutate := range map[string]func(*Plan){
		"doubles exceed crashes": func(p *Plan) { p.Doubles = p.Crashes + 1 },
		"no targets":             func(p *Plan) { p.Targets = nil },
		"double needs two":       func(p *Plan) { p.Targets = p.Targets[:1] },
		"zero window":            func(p *Plan) { p.Window = 0 },
		"nil crash action":       func(p *Plan) { p.Targets[0].Crash = nil },
	} {
		p := testPlan(1)
		mutate(&p)
		if _, err := p.Compile(); err == nil {
			t.Errorf("%s: Compile accepted an invalid plan", name)
		}
	}
}

// Arm fires each event's crash actions at exactly the compiled instant,
// in target order, and then the onCrash callback.
func TestArmFiresOnSchedule(t *testing.T) {
	eng := sim.NewEngine()
	var fired []string
	var times []sim.Time
	p := testPlan(99)
	for i := range p.Targets {
		name := p.Targets[i].Name
		p.Targets[i].Crash = func() {
			fired = append(fired, name)
			times = append(times, eng.Now())
		}
	}
	s := p.MustCompile()
	var crashEvents []Event
	s.Arm(eng, nil, func(ev Event) { crashEvents = append(crashEvents, ev) })
	eng.RunFor(p.Start.Sub(sim.Time(0)) + p.Window + ms(100))

	wantFires := 0
	for _, ev := range s.Events {
		wantFires += len(ev.Targets)
	}
	if len(fired) != wantFires {
		t.Fatalf("want %d crash actions, got %d (%v)", wantFires, len(fired), fired)
	}
	if len(crashEvents) != len(s.Events) {
		t.Fatalf("want %d onCrash callbacks, got %d", len(s.Events), len(crashEvents))
	}
	i := 0
	for _, ev := range s.Events {
		for _, ti := range ev.Targets {
			if fired[i] != p.Targets[ti].Name {
				t.Errorf("fire %d: want %s, got %s", i, p.Targets[ti].Name, fired[i])
			}
			if times[i] != ev.At {
				t.Errorf("fire %d: want time %v, got %v", i, ev.At, times[i])
			}
			i++
		}
	}
}
