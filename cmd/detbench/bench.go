package main

import (
	"fmt"
	"time"

	"repro"
)

// config is one run: a workload, its seed, the measured window and whether
// this is the traced run.
type config struct {
	w      workload
	seed   uint64
	window time.Duration
	traced bool
	// start brings up the server of a served workload.
	start startFunc
	// setups is how many times the run sets up; setup_s is their median and
	// the window runs on the last one.
	setups int
}

// serveReplayRequests is the length of the serving replay that gives the
// in-process workloads their serve.* metrics.
const serveReplayRequests = 16

// runWorkload makes the inputs from the seed, checks them against direct
// reference solves, sets up, measures the window and, in the traced run,
// replays each layer. It returns an error only when the benchmark itself
// cannot run; wrong or failed outputs are counted in the result.
func runWorkload(cfg config, tr *tracer) (*result, error) {
	res := newResult()
	w := cfg.w
	calibBefore := calibrate()
	in, err := generate(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	// The reference engine keeps every graph prepared, so the prepared-cache
	// hit replay hits.
	refEng := repro.NewEngine(&repro.Options{PreparedCacheCap: -1})
	if err := computeRefs(refEng, w, in); err != nil {
		return nil, err
	}
	if w.inline {
		if err := in.encodeGraphs(); err != nil {
			return nil, err
		}
	}

	// A prefix-warmed workload's window starts right after the warm-up
	// prefix, so its first requests miss the prepared cache like every other.
	win := window{list: in.plan, from: w.warmups, interleave: cfg.traced}
	var m *measured
	if w.served {
		m, err = measureServed(cfg.start, w, in, cfg.setups, win, cfg.window)
	} else {
		m, err = measureInproc(w, in, cfg.setups, win, cfg.window)
	}
	if err != nil {
		return nil, err
	}
	res.tally(m.warm)
	res.tally(m.win)

	if !cfg.traced {
		setEndToEnd(res, w, m)
	} else {
		tr.addWindow(m.win, w.served)
		// Memory is a per-layer metric, unbounded: detservd's resident set on
		// serve-fp settles at about 16 or about 27 MB from run to run,
		// depending on where GCs fall relative to pooled scratch contexts.
		res.set("mem.rss_mb", m.rssMB)
		res.set("mem.peak_rss_mb", m.peakRSSMB)
		setRounds(res, m.win)
		setTraceOverhead(res, w, m.win)
		rp := &replayer{tr: tr, res: res}
		sm := m
		if !w.served {
			sm, err = measureServed(startInprocess, w, in, 1, window{list: in.plan, limit: serveReplayRequests}, 0)
			if err != nil {
				return nil, err
			}
			res.tally(sm.warm)
			res.tally(sm.win)
		}
		setServe(res, rp, sm)
		if err := setReplays(res, rp, in, refEng); err != nil {
			return nil, err
		}
	}
	calibAfter := calibrate()
	res.note("host.calib_before_ms", calibBefore, "ms")
	res.note("host.calib_after_ms", calibAfter, "ms")
	if cfg.traced {
		res.set("host.calib_ms", (calibBefore+calibAfter)/2)
	}
	res.note("window_s", m.elapsed.Seconds(), "s")
	res.Correct = res.Failed == 0
	return res, nil
}

func measureInproc(w workload, in *inputs, setups int, win window, length time.Duration) (*measured, error) {
	m := &measured{}
	var pgs []*repro.PreparedGraph
	for range setups {
		var d time.Duration
		var err error
		pgs, m.lastWarm, d, err = setupInproc(w, in)
		if err != nil {
			return nil, err
		}
		m.warm = append(m.warm, m.lastWarm...)
		m.setups = append(m.setups, d.Seconds())
	}
	cpu0, err := cpuTime(0)
	if err != nil {
		return nil, err
	}
	rss := sampleRSS(0)
	start := time.Now()
	win.deadline = start.Add(length)
	m.win = runInproc(pgs, in, win)
	m.elapsed = time.Since(start)
	if m.rssMB, err = rss(); err != nil {
		return nil, err
	}
	cpu1, err := cpuTime(0)
	if err != nil {
		return nil, err
	}
	m.cpu = cpu1 - cpu0
	m.peakRSSMB, err = memMB(0, "VmHWM")
	return m, err
}

// measureServed sets up setups times, stopping every server but the last,
// runs the window against that one and stops it. A zero length runs the
// window by its request limit alone.
func measureServed(start startFunc, w workload, in *inputs, setups int, win window, length time.Duration) (m *measured, err error) {
	m = &measured{}
	var b *backend
	defer func() {
		if b != nil {
			if serr := b.stop(); serr != nil && err == nil {
				err = fmt.Errorf("stop server: %w", serr)
			}
		}
	}()
	for range setups {
		if b != nil {
			if err := b.stop(); err != nil {
				return nil, fmt.Errorf("stop server: %w", err)
			}
			b = nil
		}
		var d time.Duration
		m.c, b, m.lastWarm, d, err = setupServed(start, w, in)
		if err != nil {
			return nil, err
		}
		m.warm = append(m.warm, m.lastWarm...)
		m.setups = append(m.setups, d.Seconds())
	}
	if m.before, err = m.c.snapshot(); err != nil {
		return nil, err
	}
	cpu0, err := cpuTime(b.pid)
	if err != nil {
		return nil, err
	}
	rss := sampleRSS(b.pid)
	t0 := time.Now()
	if length > 0 {
		win.deadline = t0.Add(length)
	}
	m.win = m.c.run(win)
	m.elapsed = time.Since(t0)
	if m.rssMB, err = rss(); err != nil {
		return nil, err
	}
	cpu1, err := cpuTime(b.pid)
	if err != nil {
		return nil, err
	}
	m.cpu = cpu1 - cpu0
	if m.peakRSSMB, err = memMB(b.pid, "VmHWM"); err != nil {
		return nil, err
	}
	m.after, err = m.c.snapshot()
	return m, err
}

func (c *client) snapshot() (statsSnapshot, error) {
	st, err := c.status()
	return statsSnapshot{completed: st.Completed, rejected: st.Rejected, prepared: st.PreparedGraphs}, err
}
