package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// digestRequests is the stream prefix the deterministic counts cover:
// three rounds of the image stream, one round of the kernel stream.
// Every run completes at least this many requests.
const digestRequests = 21

// counts are figures the program computes deterministically: for one
// seed they must repeat exactly from run to run, traced or not. A drift
// is a finding, never averaged away.
type counts struct {
	Requests   int    `json:"requests"`
	Tested     int    `json:"tested,omitempty"`
	Verified   int    `json:"verified"`
	DynPctSum  string `json:"dyn_pct_sum"`
	FinalsHash string `json:"finals_sha256"`
	// Only traced runs measure these.
	BaseSteps uint64 `json:"base_steps,omitempty"`
	Overhead  string `json:"overhead_x,omitempty"`
}

// prefixCounts folds the first digestRequests outcomes of the stream.
// Under service-repeat a job's tested count depends on which concurrent
// job filled the shared verdict cache first, so only its finals are
// pinned there.
func prefixCounts(wl *workload, outs []outcome, vs []verdict) (counts, bool) {
	var c counts
	h := sha256.New()
	dyn := 0.0
	for i, o := range outs {
		if o.req.Index >= digestRequests {
			break
		}
		if o.sum == nil {
			return c, false
		}
		c.Requests++
		if wl.callers == 1 {
			c.Tested += o.sum.Tested
		}
		if vs[i].verified {
			c.Verified++
			dyn += vs[i].dynPct
		}
		io.WriteString(h, stripNotes(o.final))
	}
	if c.Requests < digestRequests {
		return c, false
	}
	c.DynPctSum = fmt.Sprintf("%.9f", dyn)
	c.FinalsHash = hex.EncodeToString(h.Sum(nil))
	return c, true
}

// checkCounts compares this run's counts with the ones recorded by an
// earlier run of the same binary, stream and seed, and records them if
// there were none. search-inproc and fleet-remote deal the same stream,
// so each is checked against the other too. vmc carries the traced
// run's VM counts.
func checkCounts(cfg runConfig, rep *report, outs []outcome, vs []verdict, vmc *vmStats) {
	c, ok := prefixCounts(cfg.wl, outs, vs)
	if !ok {
		rep.linef("FINDING: fewer than %d completed requests; deterministic counts not checked", digestRequests)
		rep.correct = false
		return
	}
	if vmc != nil {
		c.BaseSteps, c.Overhead = vmc.baseSteps, fmt.Sprintf("%.9f", vmc.overheadX)
	}
	path, err := countsPath(cfg)
	if err != nil {
		rep.linef("NOTE: counts not recorded: %v", err)
		return
	}
	var prev counts
	data, err := os.ReadFile(path)
	if err == nil && json.Unmarshal(data, &prev) == nil {
		if drift := compareCounts(prev, c); len(drift) > 0 {
			for _, d := range drift {
				rep.linef("FINDING: deterministic count drift for seed %d: %s", cfg.seed, d)
			}
			rep.correct = false
			return
		}
		rep.linef("counts: match the earlier run of seed %d (%s)", cfg.seed, filepath.Base(path))
		if prev.BaseSteps != 0 || vmc == nil {
			return // nothing to add to the record
		}
	}
	data, err = json.MarshalIndent(c, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		rep.linef("NOTE: counts not recorded: %v", err)
		return
	}
	rep.linef("counts: recorded for seed %d (%s)", cfg.seed, filepath.Base(path))
}

// compareCounts lists the fields that differ, skipping VM counts one
// side did not measure.
func compareCounts(a, b counts) []string {
	var out []string
	diff := func(name string, x, y any) {
		if x != y {
			out = append(out, fmt.Sprintf("%s %v -> %v", name, x, y))
		}
	}
	diff("requests", a.Requests, b.Requests)
	diff("tested", a.Tested, b.Tested)
	diff("verified", a.Verified, b.Verified)
	diff("dyn_pct_sum", a.DynPctSum, b.DynPctSum)
	diff("finals_sha256", a.FinalsHash, b.FinalsHash)
	if a.BaseSteps != 0 && b.BaseSteps != 0 {
		diff("base_steps", a.BaseSteps, b.BaseSteps)
		diff("overhead_x", a.Overhead, b.Overhead)
	}
	sort.Strings(out)
	return out
}

// countsPath keys recorded counts by stream, seed and a digest of the
// benchmark binary, so counts recorded by another build are never
// compared.
func countsPath(cfg runConfig) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	dir := filepath.Join(cfg.out, "counts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", cfg.wl.streamName(), cfg.seed, hex.EncodeToString(h.Sum(nil))[:16])), nil
}
