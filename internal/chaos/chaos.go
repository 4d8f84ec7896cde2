// Package chaos is the deterministic crash-schedule harness for the
// recovery experiments (§4 "error handling"). A Plan names the crashable
// components of a machine and the statistical shape of a crash campaign
// (how many crashes, over what window, how tightly spaced, how many
// coordinated double-failures); Compile turns it into a fixed timetable
// using nothing but the plan's seed, and Arm schedules the crash actions
// on the simulation engine through the fault plane's CrashAt hook so
// message faults and lifecycle faults live in one schedule.
//
// The package only schedules crashes. Judging a campaign is the
// client's job: the experiment records a linearize.History and times
// recovery from each crash instant Arm reports.
//
// Determinism: Compile draws from a private sim.Rand seeded only by
// Plan.Seed, so the same plan compiles to the same timetable on every
// run.
package chaos

import (
	"fmt"
	"sort"
	"strings"

	"nocpu/internal/faultinject"
	"nocpu/internal/sim"
)

// Target is one crashable component and the closure that crashes it
// (e.g. a device Kill, a kernel panic). The harness never restarts a
// target itself — recovery is the system's job (watchdog, Reset,
// rejoin), which is exactly what the experiments measure.
type Target struct {
	Name  string
	Crash func()
}

// Plan is the declarative description of a crash campaign.
type Plan struct {
	Seed    uint64       // RNG seed; the only source of randomness
	Start   sim.Time     // earliest crash instant
	Window  sim.Duration // crash instants are drawn in [Start, Start+Window)
	Crashes int          // total crash events
	MinGap  sim.Duration // minimum spacing between consecutive events
	Doubles int          // of the events, how many hit two targets at once
	Targets []Target
}

// Event is one compiled crash: at time At, every listed target crashes
// in order (two entries for a coordinated double-failure).
type Event struct {
	At      sim.Time
	Targets []int // indices into Plan.Targets
}

// Schedule is a compiled, immutable crash timetable.
type Schedule struct {
	plan   Plan
	Events []Event
}

// Compile fixes the campaign into a timetable. It validates the plan,
// draws the crash instants, sorts them, enforces MinGap by pushing later
// events out, then assigns targets. The first Doubles events in time
// order become double-failures (deterministic, so a golden schedule in a
// test pins both the instants and the victim pairs).
func (p Plan) Compile() (*Schedule, error) {
	if p.Crashes < 0 || p.Doubles < 0 {
		return nil, fmt.Errorf("chaos: negative crash counts")
	}
	if p.Doubles > p.Crashes {
		return nil, fmt.Errorf("chaos: %d doubles > %d crashes", p.Doubles, p.Crashes)
	}
	if p.Crashes > 0 && len(p.Targets) == 0 {
		return nil, fmt.Errorf("chaos: %d crashes but no targets", p.Crashes)
	}
	if p.Doubles > 0 && len(p.Targets) < 2 {
		return nil, fmt.Errorf("chaos: double-failures need at least two targets")
	}
	if p.Crashes > 0 && p.Window <= 0 {
		return nil, fmt.Errorf("chaos: crashes need a positive window")
	}
	for i, t := range p.Targets {
		if t.Crash == nil {
			return nil, fmt.Errorf("chaos: target %d (%q) has no crash action", i, t.Name)
		}
	}
	rng := sim.NewRand(p.Seed ^ 0x63686173) // "chas"
	s := &Schedule{plan: p}
	ats := make([]sim.Time, p.Crashes)
	for i := range ats {
		ats[i] = p.Start.Add(sim.Duration(rng.Intn(int(p.Window))))
	}
	sort.Slice(ats, func(i, j int) bool { return ats[i] < ats[j] })
	for i := 1; i < len(ats); i++ {
		if floor := ats[i-1].Add(p.MinGap); ats[i] < floor {
			ats[i] = floor
		}
	}
	for i, at := range ats {
		ev := Event{At: at, Targets: []int{rng.Intn(len(p.Targets))}}
		if i < p.Doubles {
			second := rng.Intn(len(p.Targets) - 1)
			if second >= ev.Targets[0] {
				second++
			}
			ev.Targets = append(ev.Targets, second)
		}
		s.Events = append(s.Events, ev)
	}
	return s, nil
}

// MustCompile is Compile for fixed plans in experiments and tests.
func (p Plan) MustCompile() *Schedule {
	s, err := p.Compile()
	if err != nil {
		panic(err)
	}
	return s
}

// Arm schedules every event's crash actions on the engine through the
// fault plane (a nil plane still works — CrashAt only needs the engine).
// onCrash, if non-nil, runs after the targets of an event have crashed,
// so the experiment can mark the instant it starts timing recovery.
func (s *Schedule) Arm(eng *sim.Engine, plane *faultinject.Plane, onCrash func(Event)) {
	for _, ev := range s.Events {
		ev := ev
		plane.CrashAt(eng, ev.At, func() {
			for _, ti := range ev.Targets {
				s.plan.Targets[ti].Crash()
			}
			if onCrash != nil {
				onCrash(ev)
			}
		})
	}
}

// String renders the timetable, one event per line ("12.5ms nic+ssd").
func (s *Schedule) String() string {
	var b strings.Builder
	for i, ev := range s.Events {
		names := make([]string, len(ev.Targets))
		for j, ti := range ev.Targets {
			names[j] = s.plan.Targets[ti].Name
		}
		fmt.Fprintf(&b, "%d: %v %s\n", i, ev.At, strings.Join(names, "+"))
	}
	return b.String()
}
