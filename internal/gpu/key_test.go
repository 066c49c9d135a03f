package gpu

import (
	"testing"

	"repro/internal/keytest"
)

// Flipping any exported field of Config or its mem.Config — reached by
// reflection, so a field added later is covered without touching this
// test — changes the launch key, except the two canonicalised fields
// AppendLaunchKey documents: Name never, TwoLevelActive only under the
// TwoLevel policy that reads it.
func TestLaunchKeyCoversEveryField(t *testing.T) {
	key := func(c Config) string { return string(c.AppendLaunchKey(nil)) }
	for _, pol := range Schedulers() {
		cfg := TitanV()
		cfg.Scheduler = pol
		base := key(cfg)
		seen := 0
		keytest.EachField(&cfg, func(path string) {
			seen++
			changed := key(cfg) != base
			excepted := path == "Name" || (path == "TwoLevelActive" && cfg.Scheduler != TwoLevel)
			if changed == excepted {
				t.Errorf("%v: changing %s: key changed = %t, want %t", pol, path, changed, !excepted)
			}
		})
		if seen < 35 {
			t.Errorf("walk visited only %d fields", seen)
		}
	}
	if a, b := TitanV(), RTX2080(); key(a) == key(b) {
		t.Error("Titan V and RTX 2080 share a launch key")
	}
}
