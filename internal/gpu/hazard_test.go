package gpu

import (
	"math"
	"reflect"
	"testing"
)

// tryWarp trusts simWarp.hazardAt — the scoreboard verdict issue recorded
// for the warp's next instruction — instead of walking the scoreboard
// again. This white-box run steps the SMs by hand (Run's loop, minus
// cancellation and the cycle budget) and checks before every sm.step
// that each live warp's stored verdict equals a fresh hazardClear of the
// instruction it would execute. A warp's verdict, scoreboard and PC
// change only when that warp issues, at most once per step, so the state
// checked here is exactly what any tryWarp inside the step sees. The
// pressure workload with a lowered CTA cap covers every way a warp gets
// to tryWarp: fresh dispatch, back-to-back issue, a scoreboard park, a
// barrier release, a CTA refill into a recycled slot, and stream end.
func TestStoredHazardMatchesScoreboard(t *testing.T) {
	for _, w := range goldenWorkloads(t) {
		if w.name != "sgemm-simt-pressure-256x256x32" {
			continue
		}
		for _, pol := range Schedulers() {
			cfg := TitanV()
			cfg.NumSMs = 2
			cfg.MaxCTAsPerSM = 3 // 16 CTAs over 6 slots: slots refill as CTAs retire
			cfg.Scheduler = pol

			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Run(w.spec)
			if err != nil {
				t.Fatal(err)
			}

			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range s.sms {
				for _, sc := range m.subcores {
					sc.reset()
				}
			}
			d := &dispatcher{spec: w.spec, sim: s, limit: w.spec.Grid.Count()}
			st := &Stats{CTAsTotal: d.limit}
			var checked, afterBarrier, parked, refills, exits int
			check := func(m *sm) {
				for _, sc := range m.subcores {
					for _, sw := range sc.warps {
						if sw.state == warpFinished {
							exits++ // retired ahead of its CTA's other warps
							continue
						}
						in := sw.warp.PeekD()
						if in == nil {
							continue
						}
						if got := sw.hazardClear(in); sw.hazardAt != got {
							t.Fatalf("%v cycle %d: warp in state %d stores hazardAt %d, scoreboard says %d",
								pol, s.cycle, sw.state, sw.hazardAt, got)
						}
						checked++
						if sw.state == warpAtBarrier {
							afterBarrier++
						}
						if sw.state == warpStalled && sw.stallUntil == sw.hazardAt {
							parked++
						}
					}
				}
			}
			for progress := true; progress; { // initial dispatch, one CTA per SM per pass
				progress = false
				for _, m := range s.sms {
					added, err := d.fillOne(m)
					if err != nil {
						t.Fatal(err)
					}
					progress = progress || added
				}
			}
			for {
				live, issued, minWake := false, false, uint64(math.MaxUint64)
				for _, m := range s.sms {
					if m.nextWake <= s.cycle {
						check(m)
						iss, wake, err := m.step(st)
						if err != nil {
							t.Fatal(err)
						}
						m.nextWake = max(wake, s.cycle+1)
						if iss {
							issued = true
							m.nextWake = s.cycle + 1
						}
					}
					added, err := d.fillOne(m)
					if err != nil {
						t.Fatal(err)
					}
					if added {
						issued = true
						m.nextWake = s.cycle + 1
						refills++
					}
					live = live || len(m.ctas) > 0 || !d.done()
					minWake = min(minWake, m.nextWake)
				}
				switch {
				case !live:
				case issued || minWake <= s.cycle:
					s.cycle++
					continue
				case minWake == math.MaxUint64:
					t.Fatalf("%v: deadlock at cycle %d", pol, s.cycle)
				default:
					s.cycle = minWake
					continue
				}
				break
			}
			// The hand-stepped run is the real one: same simulated outcome.
			got := []uint64{s.cycle, st.WarpInstructions, st.ThreadInstructions}
			if exp := []uint64{want.Cycles, want.WarpInstructions, want.ThreadInstructions}; !reflect.DeepEqual(got, exp) {
				t.Errorf("%v: hand-stepped run gave cycles/warp/thread instructions %v, Run gave %v", pol, got, exp)
			}
			if checked == 0 || afterBarrier == 0 || parked == 0 || refills == 0 || exits == 0 {
				t.Errorf("%v: coverage hole: %d checks, %d at a barrier, %d scoreboard-parked, %d refills, %d exited early",
					pol, checked, afterBarrier, parked, refills, exits)
			}
		}
	}
}
