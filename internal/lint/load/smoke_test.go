package load

import (
	"testing"
	"time"
)

func TestSmokeLoadAll(t *testing.T) {
	t0 := time.Now()
	res, err := Load("../../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	targets := res.Targets()
	t.Logf("module=%s packages=%d targets=%d in %v", res.ModulePath, len(res.Packages), len(targets), time.Since(t0))
	for _, p := range res.Packages {
		if len(p.typeErrs) > 0 {
			t.Errorf("typeerrs %s (dep=%v std=%v): %v", p.PkgPath, p.DepOnly, p.Standard, p.typeErrs[0])
		}
	}
}
