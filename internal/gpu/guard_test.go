package gpu

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ptx"
)

// A guarded exit or bar.sync acts like a guarded bra: a guard false in
// every lane falls through, one true in every lane exits or waits, and a
// guard that differs between a warp's lanes is an error. Each case runs
// through ptx.RunGrid, serial and pipelined gpu.Run and TimingOnly, which
// must agree.

// guardSrc stores 7 to out[tid] after "@%p <op>" with %p = tid <cmp> limit.
const guardSrc = `
.entry guarded(.param .u64 out)
  mov.u32      %%t, %%tid.x;
  setp.%s.u32  %%p, %%t, %d;
@%%p %s;
  mov.u32      %%v, 7;
  mul.wide.u32 %%off, %%t, 4;
  add.u64      %%a, %%off, %%out;
  st.global.32 [%%a], %%v;
  exit;
`

func TestGuardedExitAndBarrier(t *testing.T) {
	const threads = 64
	cases := []struct {
		op     string
		cmp    string
		limit  int
		stored int    // threads from 0 up that store 7
		err    string // the divergent guard's error
	}{
		{"exit", "gt", 1000, 64, ""},                   // false everywhere: falls through
		{"exit", "ge", 0, 0, ""},                       // true everywhere: every warp exits
		{"exit", "gt", 31, 32, ""},                     // warp 1 exits, warp 0 stores
		{"exit", "gt", 15, 0, "divergent exit"},        // lanes of warp 0 disagree
		{"bar.sync", "gt", 1000, 64, ""},               // no warp waits
		{"bar.sync", "ge", 0, 64, ""},                  // both wait, then go on
		{"bar.sync", "gt", 31, 64, ""},                 // warp 1 waits, warp 0 exits and releases it
		{"bar.sync", "gt", 47, 0, "divergent barrier"}, // lanes of warp 1 disagree
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s/%s%d", c.op, c.cmp, c.limit)
		k, err := ptx.Parse(fmt.Sprintf(guardSrc, c.cmp, c.limit, c.op))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 4*threads)
		for i := 0; i < c.stored; i++ {
			binary.LittleEndian.PutUint32(want[4*i:], 7)
		}
		ref := ptx.NewFlatMemory(4 * threads)
		refErr := ptx.RunGrid(k, ref, ptx.D1(1), ptx.D1(threads), []uint64{0})
		if c.err != "" {
			if refErr == nil || !strings.Contains(refErr.Error(), c.err) {
				t.Fatalf("%s: RunGrid error %v, want %q", name, refErr, c.err)
			}
		} else if refErr != nil || !reflect.DeepEqual(ref.Data, want) {
			t.Fatalf("%s: RunGrid error %v, memory %v, want %v", name, refErr, ref.Data, want)
		}
		spec := LaunchSpec{Kernel: k, Grid: ptx.D1(1), Block: ptx.D1(threads), Args: []uint64{0}}
		mem := checkPipelineMatchesSerial(t, name, twoSMs(), spec, make([]byte, 4*threads))
		if c.err == "" && !reflect.DeepEqual(mem, want) {
			t.Fatalf("%s: gpu.Run memory %v, want %v", name, mem, want)
		}
		full, _, fullErr := launchProcs(t, 1, twoSMs(), spec, make([]byte, 4*threads))
		spec.TimingOnly = true
		timing, _, timingErr := launchProcs(t, 1, twoSMs(), spec, make([]byte, 4*threads))
		if fmt.Sprint(fullErr) != fmt.Sprint(timingErr) || !reflect.DeepEqual(full, timing) {
			t.Fatalf("%s: TimingOnly %+v (%v), full %+v (%v)", name, timing, timingErr, full, fullErr)
		}
	}
}
