package qdcbir

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"qdcbir/internal/core"
	"qdcbir/internal/server"
	"qdcbir/internal/shard"
)

// machinePlay is what one scripted session shows and keeps on one backing.
type machinePlay struct {
	Displays [][]int // rounds 0..2, then the display after the retract
	Panels   [][]int // relevant images after each round
	Widths   []int   // frontier width after each round
	State    string  // exported SessionState JSON at the end
}

// playMachine runs the conformance script on one round machine: it marks
// every third candidate of three displays, one per round, a rejected round
// (an undisplayed image beside a displayed one) that must change nothing,
// a retract of the first mark, and one more display.
func playMachine[N comparable, ID core.Image](t *testing.T, name string, m *core.Machine[N, ID]) machinePlay {
	t.Helper()
	var p machinePlay
	display := func() []ID {
		var ids []ID
		for _, c := range m.Candidates() {
			ids = append(ids, c.ID)
		}
		out := make([]int, len(ids))
		for i, id := range ids {
			out[i] = int(id)
		}
		p.Displays = append(p.Displays, out)
		return ids
	}
	export := func() string {
		raw, err := json.Marshal(m.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	var shown []ID
	for round := 0; round < 3; round++ {
		shown = display()
		var marks []ID
		for i, id := range shown {
			if i%3 == 0 {
				marks = append(marks, id)
			}
		}
		if err := m.Feedback(marks); err != nil {
			t.Fatalf("%s round %d: %v", name, round, err)
		}
		panel := make([]int, len(m.Relevant()))
		for i, id := range m.Relevant() {
			panel[i] = int(id)
		}
		p.Panels = append(p.Panels, panel)
		p.Widths = append(p.Widths, len(m.Frontier()))
	}
	before := export()
	if err := m.Feedback([]ID{shown[1], 1 << 30}); err == nil {
		t.Fatalf("%s: a round marking an undisplayed image was accepted", name)
	}
	if after := export(); after != before {
		t.Fatalf("%s: a rejected round changed the session:\n  before %s\n  after  %s", name, before, after)
	}
	m.Retract(m.Relevant()[:1])
	display()
	p.State = export()
	return p
}

// Displays and exported state of the engine's session for seed 11, recorded
// before the four session copies became one round machine: the machine must
// keep showing them.
var conformanceGolden = machinePlay{
	Displays: [][]int{
		{407, 568, 362, 569, 535, 49, 135, 552, 469, 582, 37, 210, 50, 184, 584, 242, 33, 80, 508, 8, 281},
		{400, 242, 249, 438, 430, 431, 184, 508, 352, 575, 569, 584, 540, 582, 568, 65, 60, 72, 407, 408, 552},
		{395, 400, 395, 135, 430, 135, 162, 184, 352, 542, 584, 569, 541, 568, 540, 50, 50, 72, 408, 407, 552},
		{249, 242, 249, 431, 438, 430, 508, 162, 352, 575, 542, 569, 582, 541, 582, 60, 65, 65, 408, 407, 552},
	},
	Widths: []int{7, 7, 7},
	State: `{"version":1,"relevant":[569,135,582,50,242,508,400,438,184,575,540,65,395,162,542,541,408],` +
		`"assign":{"135":18,"162":23,"184":23,"242":3,"395":3,"400":3,"408":36,"438":18,"50":31,"508":23,"540":30,"541":30,"542":29,"569":29,"575":29,"582":30,"65":31},` +
		`"displayed":{"135":18,"162":23,"184":23,"210":39,"242":3,"249":3,"281":39,"33":39,"352":23,"362":39,"37":39,"395":3,"400":3,"407":36,"408":36,"430":18,"431":18,"438":18,"469":39,"49":39,"50":31,"508":23,"535":39,"540":30,"541":30,"542":29,"552":36,"568":30,"569":29,"575":29,"582":30,"584":29,"60":31,"65":31,"72":31,"8":39,"80":39},` +
		`"rounds":3,"expansions":0,"feedback_reads":10,"final_reads":0}`,
}

// TestRoundMachineConformance builds the round machine's four backings from
// one corpus — the engine's structure, the shard topology, the adopted
// dynamic system's single segment, and the smart client's payload — plays
// one script on each, and demands identical displays, panels, frontier
// widths and exported state. Seed 11's engine play is pinned to the
// recorded one. Before the smart client ran the round machine, its
// marking-order frontier diverged from the hosted sessions' at seed 11's
// second display, and its floored pool shares at seed 2's.
func TestRoundMachineConformance(t *testing.T) {
	sys := sharedShardSystem(t)
	dc := sys.Config().DisplayCount
	topo := shard.TopologyOf(sys.RFS(), sys.SubconceptOf)
	d, err := OpenDynamic(sys, DynamicConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	snap := d.DB().Acquire()
	defer snap.Release()
	if snap.Segments() != 1 {
		t.Fatalf("adopted system has %d segments", snap.Segments())
	}
	payload, err := server.BuildPayload(sys.Engine(), sys.SubconceptOf)
	if err != nil {
		t.Fatal(err)
	}
	if err := payload.Validate(); err != nil {
		t.Fatal(err)
	}

	for _, seed := range []int64{11, 2} {
		rng := func() *rand.Rand { return rand.New(rand.NewSource(seed)) }
		plays := map[string]machinePlay{
			"engine":  playMachine(t, "engine", &sys.Engine().NewSession(rng()).Machine),
			"shard":   playMachine(t, "shard", core.NewMachine(topo.Hierarchy(), rng(), dc)),
			"seg":     playMachine(t, "seg", core.NewMachine(snap.Forest(), rng(), dc)),
			"payload": playMachine(t, "payload", core.NewMachine(payload.Hierarchy(), rng(), dc)),
		}
		want := plays["engine"]
		if seed == 11 && (!reflect.DeepEqual(want.Displays, conformanceGolden.Displays) || !reflect.DeepEqual(want.Widths, conformanceGolden.Widths) || want.State != conformanceGolden.State) {
			t.Fatalf("engine session drifted from the recorded play:\n  got  %+v\n  want %+v", want, conformanceGolden)
		}
		for _, name := range []string{"shard", "seg", "payload"} {
			got := plays[name]
			for i := range want.Displays {
				if !reflect.DeepEqual(got.Displays[i], want.Displays[i]) {
					t.Errorf("seed %d: %s display %d diverges:\n  engine %v\n  %-6s %v", seed, name, i, want.Displays[i], name, got.Displays[i])
				}
			}
			if !reflect.DeepEqual(got.Panels, want.Panels) || !reflect.DeepEqual(got.Widths, want.Widths) {
				t.Errorf("seed %d: %s panels/widths diverge:\n  engine %v %v\n  %-6s %v %v", seed, name, want.Panels, want.Widths, name, got.Panels, got.Widths)
			}
			if got.State != want.State {
				t.Errorf("seed %d: %s exported state diverges:\n  engine %s\n  %-6s %s", seed, name, want.State, name, got.State)
			}
		}
	}
}
