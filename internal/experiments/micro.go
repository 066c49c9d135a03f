package experiments

import (
	"fmt"
	"strings"

	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/sass"
	"repro/internal/tcore"
	"repro/internal/tensor"
	"repro/internal/wmma"
)

// Microarchitecture experiments: the reverse-engineering artifacts of
// Section III (Figures 7–12, Tables I–III).

// Fig7 tabulates the Volta fragment-to-thread mappings of Figure 7:
// per-threadgroup regions, fragment sizes and SASS load decompositions.
func Fig7(Options) (*Table, error) {
	t := &Table{ID: "fig7", Title: "Volta fragment-to-thread mapping (16x16x16)",
		Columns: []string{"operand", "layout", "elem", "tg", "region", "frag", "loads/lane", "copies/elem"}}
	cases := []struct {
		op     wmma.Operand
		layout tensor.Layout
		elem   wmma.Precision
	}{
		{wmma.MatrixA, tensor.RowMajor, wmma.F16},
		{wmma.MatrixA, tensor.ColMajor, wmma.F16},
		{wmma.MatrixB, tensor.RowMajor, wmma.F16},
		{wmma.MatrixB, tensor.ColMajor, wmma.F16},
		{wmma.MatrixC, tensor.RowMajor, wmma.F32},
		{wmma.MatrixC, tensor.RowMajor, wmma.F16},
	}
	for _, c := range cases {
		m, err := wmma.Map(wmma.Volta, wmma.M16N16K16, c.op, c.layout, c.elem)
		if err != nil {
			return nil, err
		}
		// Replication count of the lane-0 anchor element. This used to
		// take the first value out of map iteration order — well-defined
		// only by the accident that the paper's mappings replicate every
		// element equally (simlint determinism finding, PR 6).
		copies := m.LoadCounts()[m.Lanes[0][0]]
		prog := sass.ExpandLoad(m, 16)
		var ops []string
		for _, in := range prog {
			ops = append(ops, in.Op.String())
		}
		for tg := 0; tg < wmma.NumThreadgroups; tg++ {
			rl, rh, cl, ch := m.ThreadgroupRegion(tg)
			t.AddRow(c.op.String(), c.layout.String(), c.elem.String(), fmtI(uint64(tg)),
				fmt.Sprintf("[%d:%d,%d:%d]", rl, rh, cl, ch),
				fmtI(uint64(m.FragmentLen())),
				strings.Join(dedupe(ops), "+"),
				fmtI(uint64(copies)))
		}
	}
	t.Note("every A/B element is held by exactly two threads of different threadgroups; C by one (paper Section III-B)")
	return t, nil
}

// Fig8 tabulates the Turing mappings of Figure 8.
func Fig8(Options) (*Table, error) {
	t := &Table{ID: "fig8", Title: "Turing fragment-to-thread mapping",
		Columns: []string{"shape", "operand", "elem", "frag", "slices/tg", "copies/elem"}}
	for _, sh := range []wmma.Shape{wmma.M16N16K16, wmma.M32N8K16, wmma.M8N32K16, wmma.M8N8K32} {
		elems := []wmma.Precision{wmma.F16, wmma.S8}
		if sh == wmma.M8N8K32 {
			elems = []wmma.Precision{wmma.S4}
		}
		for _, elem := range elems {
			for _, op := range []wmma.Operand{wmma.MatrixA, wmma.MatrixB, wmma.MatrixC} {
				e := elem
				if op == wmma.MatrixC {
					if elem == wmma.F16 {
						e = wmma.F32
					} else {
						e = wmma.S32
					}
				}
				m, err := wmma.Map(wmma.Turing, sh, op, tensor.RowMajor, e)
				if err != nil {
					return nil, err
				}
				slices := map[int]bool{}
				for _, c := range m.Lanes[0] {
					s := c.Row
					if op == wmma.MatrixB {
						s = c.Col
					}
					slices[s] = true
				}
				// Anchor-element replication count, not map-iteration
				// order (see the Volta table above).
				copies := m.LoadCounts()[m.Lanes[0][0]]
				t.AddRow(sh.String(), op.String(), e.String(),
					fmtI(uint64(m.FragmentLen())), fmtI(uint64(len(slices))), fmtI(uint64(copies)))
			}
		}
	}
	t.Note("every element loaded exactly once; consecutive threadgroups hold consecutive rows/columns (paper Section III-B-2)")
	return t, nil
}

func dedupe(xs []string) []string {
	var out []string
	for _, x := range xs {
		if len(out) == 0 || out[len(out)-1] != x {
			out = append(out, x)
		}
	}
	return out
}

// Fig9 regenerates the cumulative clock cycles of Figure 9 by running the
// clock-patching methodology of Figure 6 over the SASS expansion.
func Fig9(Options) (*Table, error) {
	t := &Table{ID: "fig9", Title: "Volta HMMA cumulative clock cycles (Figure 6 sweep)",
		Columns: []string{"mode", "hmma", "set", "step", "cum_cycles"}}
	for _, mode := range []tcore.Mode{tcore.MixedPrecision, tcore.FP16} {
		cfg := wmma.Config{Arch: wmma.Volta, Shape: wmma.M16N16K16,
			ALayout: tensor.RowMajor, BLayout: tensor.ColMajor, AType: wmma.F16,
			CType: wmma.F32, DType: wmma.F32}
		if mode == tcore.FP16 {
			cfg.CType, cfg.DType = wmma.F16, wmma.F16
		}
		prog, err := sass.ExpandMMA(cfg)
		if err != nil {
			return nil, err
		}
		sweep, err := sass.CumulativeSweep(prog, tcore.VoltaTiming(mode))
		if err != nil {
			return nil, err
		}
		for i, c := range sweep {
			t.AddRow(mode.String(), fmtI(uint64(i+1)), fmtI(uint64(prog[i].Set)),
				fmtI(uint64(prog[i].Step)), fmtI(uint64(c)))
		}
	}
	t.Note("mixed precision totals 54 cycles over 16 HMMAs; FP16 mode 64 over 8 — ten cycles slower, as the paper reports")
	return t, nil
}

// TableI regenerates the Turing per-set cumulative cycles.
func TableI(Options) (*Table, error) {
	t := &Table{ID: "tab1", Title: "Average cumulative cycles to execute HMMAs up to set n (Turing)",
		Columns: []string{"tile", "precision", "set1", "set2", "set3", "set4"}}
	rows := []struct {
		shape wmma.Shape
		elem  wmma.Precision
		acc   wmma.Precision
		label string
	}{
		{wmma.M16N16K16, wmma.F16, wmma.F32, "16Bit (FP32 Acc)"},
		{wmma.M16N16K16, wmma.F16, wmma.F16, "16Bit (FP16 Acc)"},
		{wmma.M16N16K16, wmma.S8, wmma.S32, "8Bit"},
		{wmma.M32N8K16, wmma.F16, wmma.F32, "16Bit (FP32 Acc)"},
		{wmma.M32N8K16, wmma.F16, wmma.F16, "16Bit (FP16 Acc)"},
		{wmma.M32N8K16, wmma.S8, wmma.S32, "8Bit"},
		{wmma.M8N32K16, wmma.F16, wmma.F32, "16Bit (FP32 Acc)"},
		{wmma.M8N32K16, wmma.F16, wmma.F16, "16Bit (FP16 Acc)"},
		{wmma.M8N32K16, wmma.S8, wmma.S32, "8Bit"},
		{wmma.M8N8K32, wmma.S4, wmma.S32, "4Bit"},
	}
	for _, r := range rows {
		tm, err := tcore.TuringTiming(r.shape, r.elem, r.acc)
		if err != nil {
			return nil, err
		}
		cells := []string{r.shape.String(), r.label}
		for _, c := range tm.SetCumulative() {
			cells = append(cells, fmtI(uint64(c)))
		}
		for len(cells) < 6 {
			cells = append(cells, "-")
		}
		t.AddRow(cells...)
	}
	t.Note("8-bit is fastest, mixed precision slower than FP16 accumulation, 4-bit highest (experimental), matching Table I")
	return t, nil
}

// TableII regenerates the octet composition table.
func TableII(Options) (*Table, error) {
	t := &Table{ID: "tab2", Title: "Octet composition and elements accessed",
		Columns: []string{"octet", "threadgroups", "matrix A", "matrix B"}}
	for _, o := range wmma.Octets() {
		t.AddRow(fmtI(uint64(o.ID)),
			fmt.Sprintf("%d and %d", o.Threadgroups[0], o.Threadgroups[1]),
			fmt.Sprintf("[%d:%d,%d:%d]", o.ARows[0], o.ARows[1], o.ACols[0], o.ACols[1]),
			fmt.Sprintf("[%d:%d,%d:%d]", o.BRows[0], o.BRows[1], o.BCols[0], o.BCols[1]))
	}
	return t, nil
}

// TableIII regenerates the per-set/per-step outer-product table.
func TableIII(Options) (*Table, error) {
	t := &Table{ID: "tab3", Title: "Octet computation details",
		Columns: []string{"set", "step", "threadgroup X", "threadgroup X+4"}}
	for _, r := range tcore.TableIII() {
		t.AddRow(fmtI(uint64(r.Set)), fmtI(uint64(r.Step)), r.TGX, r.TGX4)
	}
	return t, nil
}

// Fig10 tabulates the Volta set/step extents of Figure 10 for
// threadgroup 0.
func Fig10(Options) (*Table, error) {
	t := &Table{ID: "fig10", Title: "Volta HMMA sub-tile extents (threadgroup 0)",
		Columns: []string{"mode", "set", "step", "A", "B", "D"}}
	for _, mode := range []tcore.Mode{tcore.MixedPrecision, tcore.FP16} {
		for _, h := range tcore.VoltaSchedule(mode) {
			w := h.TG[0]
			t.AddRow(mode.String(), fmtI(uint64(h.Set)), fmtI(uint64(h.Step)),
				w.A.String(), w.B.String(), w.D.String())
		}
	}
	t.Note("mixed: 2x4 A × 4x4 B per step; fp16: 4x4 × 4x4 — Figures 10b and 10c")
	return t, nil
}

// Fig11 tabulates the Turing per-set extents of Figure 11.
func Fig11(Options) (*Table, error) {
	t := &Table{ID: "fig11", Title: "Turing HMMA per-set sub-tile extents",
		Columns: []string{"shape", "elem", "set", "A", "B", "D"}}
	for _, c := range []struct {
		shape wmma.Shape
		elem  wmma.Precision
	}{
		{wmma.M16N16K16, wmma.F16}, {wmma.M16N16K16, wmma.S8},
		{wmma.M32N8K16, wmma.F16}, {wmma.M32N8K16, wmma.S8},
		{wmma.M8N32K16, wmma.F16}, {wmma.M8N32K16, wmma.S8},
		{wmma.M8N8K32, wmma.S4},
	} {
		sets, err := tcore.TuringSchedule(c.shape, c.elem)
		if err != nil {
			return nil, err
		}
		for _, s := range sets {
			t.AddRow(c.shape.String(), c.elem.String(), fmtI(uint64(s.Set)),
				s.A.String(), s.B.String(), s.D.String())
		}
	}
	return t, nil
}

// Fig12c sweeps warps per CTA over the repeated-HMMA microbenchmark on
// one SM, reproducing the knee at four warps.
func Fig12c(opt Options) (*Table, error) {
	iters := 64
	if opt.Quick {
		iters = 16
	}
	t := &Table{ID: "fig12c", Title: "Cycles to execute parallel HMMA vs warps per CTA (1 SM)",
		Columns: []string{"warps", "cycles", "cycles/warp-mma"}}
	cfg, err := opt.applySched(gpu.TitanV())
	if err != nil {
		return nil, err
	}
	cfg.NumSMs = 1
	cycles, perr, err := runPoints(opt, "fig12c", 8, func(opt Options, i int) (uint64, error) {
		warps := i + 1
		l, err := kernels.MMALoop(kernels.TensorMixed, warps, iters, 2)
		if err != nil {
			return 0, err
		}
		st, err := opt.launchOn(cfg, l, []wmma.Precision{wmma.F16}, [][2]int{{64, 64}}, 0, false)
		if err != nil {
			return 0, err
		}
		return st.Cycles, nil
	})
	if err != nil {
		return nil, err
	}
	var series []float64
	for i, c := range cycles {
		warps := i + 1
		if !pointOK(perr, i) {
			series = append(series, 0)
			t.AddRow(errRow([]string{fmtI(uint64(warps))}, len(t.Columns))...)
			continue
		}
		series = append(series, float64(c))
		t.AddRow(fmtI(uint64(warps)), fmtI(c), fmtF(float64(c)/float64(warps*iters*2)))
	}
	if pointOK(perr, 3) && pointOK(perr, 4) {
		knee := series[4] / series[3]
		t.Note("knee at 4 warps: cycles(5)/cycles(4) = %.2f (flat before, rising after — only 4 warps issue HMMA concurrently per SM)", knee)
		t.Note("paper Figure 12c shows the same flat-then-rising shape with the knee at 4 warps")
	}
	return t, pointFailures(t, "fig12c", perr)
}
