package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestDigestRepeats checks the behaviour fingerprint: two repetitions
// at one seed give the same digest and event count, and another seed
// gives another digest, on every workload.
func TestDigestRepeats(t *testing.T) {
	for _, sp := range specs() {
		t.Run(sp.name, func(t *testing.T) {
			a, err := runRep(sp, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runRep(sp, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			c, err := runRep(sp, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			if a.digest != b.digest {
				t.Errorf("seed 3 digests differ: %s vs %s", a.digest, b.digest)
			}
			if a.d.Executed != b.d.Executed || a.completed != b.completed {
				t.Errorf("seed 3 events/ops differ: %d/%d vs %d/%d", a.d.Executed, a.completed, b.d.Executed, b.completed)
			}
			if a.digest == c.digest {
				t.Errorf("seeds 3 and 4 share digest %s", a.digest)
			}
		})
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestOutputMatchesBenchmarkFile runs the untraced and the traced mode
// and checks the last line of each against BENCHMARK.json: exactly the
// result keys, and every declared metric with its unit.
func TestOutputMatchesBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, sp := range specs() {
		have = append(have, sp.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", names, have)
	}

	for trace, want := range [][]struct{ Name, Unit string }{bf.EndToEnd, bf.PerLayer} {
		var out bytes.Buffer
		args := []string{"--workload", "machine-kv", "--seed", "1", "--seconds", "0", "--trace", strconv.Itoa(trace)}
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   *bool
			Attempted *uint64
			Failed    *uint64
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("trace %d: last line: %v", trace, err)
		}
		if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted == 0 || res.Failed == nil {
			t.Errorf("trace %d: bad result header %s", trace, lines[len(lines)-1])
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %d: %d metrics, BENCHMARK.json declares %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("trace %d: metric %s: got %+v (present %v), want unit %s", trace, m.Name, got, ok, m.Unit)
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"--workload", "nope"}, &out); err == nil || out.Len() != 0 {
		t.Errorf("unknown workload: err %v, output %q", err, out.String())
	}
}
