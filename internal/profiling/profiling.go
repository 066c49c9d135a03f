// Package profiling is the -cpuprofile/-memprofile plumbing the CLIs
// share.
package profiling

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile into cpuPath and arranges a heap profile into
// memPath; an empty path skips that profile. Both files are created up
// front, so a bad path is an error before any work is done. The returned
// stop function ends the CPU profile and writes the heap profile: call it
// on the way out of the function that owns the run (os.Exit skips
// defers). Failures while writing are reported on stderr.
func Start(cpuPath, memPath string, stderr io.Writer) (stop func(), err error) {
	var cpu, mem *os.File
	fail := func(flag string, err error) (func(), error) {
		for _, f := range []*os.File{cpu, mem} {
			if f != nil {
				f.Close()
			}
		}
		return nil, fmt.Errorf("%s: %w", flag, err)
	}
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return fail("-cpuprofile", err)
		}
	}
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			return fail("-memprofile", err)
		}
	}
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return fail("-cpuprofile", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(stderr, "profiling: -cpuprofile:", err)
			}
		}
		if mem != nil {
			runtime.GC() // up-to-date allocation stats
			if err := pprof.WriteHeapProfile(mem); err != nil {
				fmt.Fprintln(stderr, "profiling: -memprofile:", err)
			}
			if err := mem.Close(); err != nil {
				fmt.Fprintln(stderr, "profiling: -memprofile:", err)
			}
		}
	}, nil
}
