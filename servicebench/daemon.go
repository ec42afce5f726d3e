package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one pilgrimd process under test, listening on loopback.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	log     *os.File
	exited  chan struct{}
	waitErr error
}

// readyPath is the forecast whose first successful answer ends set-up.
const readyPath = "/pilgrim/predict_transfers/" + platformName +
	"?transfer=sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,5e8"

// startDaemon launches pilgrimd and waits for its first successful
// forecast. It returns the set-up time: from launch to that answer,
// covering platform generation and compilation and, with durable set,
// opening the write-ahead log in a fresh data directory.
func startDaemon(bin, workDir, name string, durable bool) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", "127.0.0.1:" + strconv.Itoa(port), "-platforms", platformName}
	d := &daemon{base: "http://127.0.0.1:" + strconv.Itoa(port), exited: make(chan struct{})}
	if durable {
		dataDir := filepath.Join(workDir, name+"-data")
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, 0, err
		}
		// fsync never: the program's WAL path is measured, not the disk.
		// Snapshot compaction every 256 records reaches steady state
		// within a run.
		args = append(args, "-data-dir", dataDir, "-fsync", "never", "-snapshot-every", "256")
	}
	d.log, err = os.Create(filepath.Join(workDir, name+".log"))
	if err != nil {
		return nil, 0, err
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	// The daemon dies with the benchmark even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

	client := &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		d.log.Close()
		return nil, 0, fmt.Errorf("starting pilgrimd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	deadline := start.Add(60 * time.Second)
	for {
		select {
		case <-d.exited:
			d.log.Close()
			return nil, 0, fmt.Errorf("pilgrimd exited during start-up (%v); see %s", d.waitErr, d.log.Name())
		default:
		}
		resp, err := client.Get(d.base + readyPath)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("pilgrimd not ready after 60s; see %s", d.log.Name())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains pilgrimd with SIGTERM and waits for it to exit, killing it
// if the drain takes longer than 10 s.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// cpuTime is the daemon's user+sys CPU time so far, all threads.
func (d *daemon) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticksPerSecond, nil
}

// rssPeakMB is the daemon's peak resident set size (VmHWM).
func (d *daemon) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// cpuTicks is the machine-wide CPU time of /proc/stat, in clock ticks:
// busy is every state but idle and iowait, steal included; steal is
// time the hypervisor ran someone else while a vCPU wanted to run.
type cpuTicks struct{ busy, steal uint64 }

func machineCPU() (cpuTicks, error) {
	var t cpuTicks
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return t, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return t, err
		}
		if i != 3 && i != 4 {
			t.busy += n
		}
		if i == 7 {
			t.steal = n
		}
	}
	return t, nil
}

// stolenSince is the share of the time the machine's vCPUs wanted to
// run between a and b that the hypervisor gave to someone else. Work
// timed by the wall clock over that interval took 1/(1-share) times
// as long as it would have without steal.
func stolenSince(a, b cpuTicks) float64 {
	if b.busy <= a.busy {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.busy-a.busy)
}

// sampler records, for each whole second from its start until stop,
// the stolen share (stolenSince) and the daemon's CPU time.
type sampler struct {
	done chan struct{}
	out  chan samples
}

// samples holds one entry per whole second sampled: the stolen share
// and the daemon's CPU time in microseconds.
type samples struct{ stolen, cpuUS []float64 }

func startSampler(d *daemon) *sampler {
	s := &sampler{done: make(chan struct{}), out: make(chan samples, 1)}
	go func() {
		var got samples
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		t0, err := machineCPU()
		c0, cerr := d.cpuTime()
		if err == nil {
			err = cerr
		}
		for err == nil {
			select {
			case <-s.done:
				s.out <- got
				return
			case <-tick.C:
			}
			t1, err1 := machineCPU()
			c1, cerr := d.cpuTime()
			if err = err1; err == nil {
				err = cerr
			}
			if err == nil {
				got.stolen = append(got.stolen, stolenSince(t0, t1))
				got.cpuUS = append(got.cpuUS, float64((c1 - c0).Microseconds()))
				t0, c0 = t1, c1
			}
		}
		<-s.done
		s.out <- samples{}
	}()
	return s
}

// stop ends sampling and returns what it recorded, or nothing when
// /proc could not be read.
func (s *sampler) stop() samples {
	close(s.done)
	return <-s.out
}

// serverStats is the subset of /pilgrim/cache_stats the benchmark reads.
type serverStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced_hits"`
	Workers   struct {
		MaxBusy    int64  `json:"max_busy"`
		ForkReused uint64 `json:"evaluate_fork_reused"`
		ForkRuns   uint64 `json:"evaluate_fork_runs"`
		ForkCold   uint64 `json:"evaluate_fork_cold"`
	} `json:"forecast_workers"`
	Overlays struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"scenario_overlays"`
	Storage *struct {
		Appends     uint64 `json:"appends"`
		Compactions uint64 `json:"compactions"`
	} `json:"storage"`
}

func (d *daemon) stats(ctx context.Context) (serverStats, error) {
	var st serverStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/pilgrim/cache_stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, fmt.Errorf("reading cache_stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("cache_stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding cache_stats: %w", err)
	}
	return st, nil
}

// statsDelta is what the server did between two cache_stats reads.
type statsDelta struct {
	hits, misses, coalesced        uint64
	forkReused, forkRuns, forkCold uint64
	overlayHits, overlayMisses     uint64
	walAppends, walCompactions     uint64
}

func delta(a, b serverStats) statsDelta {
	d := statsDelta{
		hits: b.Hits - a.Hits, misses: b.Misses - a.Misses, coalesced: b.Coalesced - a.Coalesced,
		forkReused:  b.Workers.ForkReused - a.Workers.ForkReused,
		forkRuns:    b.Workers.ForkRuns - a.Workers.ForkRuns,
		forkCold:    b.Workers.ForkCold - a.Workers.ForkCold,
		overlayHits: b.Overlays.Hits - a.Overlays.Hits, overlayMisses: b.Overlays.Misses - a.Overlays.Misses,
	}
	if a.Storage != nil && b.Storage != nil {
		d.walAppends = b.Storage.Appends - a.Storage.Appends
		d.walCompactions = b.Storage.Compactions - a.Storage.Compactions
	}
	return d
}

func (d statsDelta) lookups() uint64 { return d.hits + d.misses + d.coalesced }

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
