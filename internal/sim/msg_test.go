package sim

import (
	"errors"
	"math"
	"testing"

	"pilgrim/internal/platform"
)

func kernelOnPair(t *testing.T) *Kernel {
	t.Helper()
	p := buildPair(t, 100e6, 0)
	cfg := DefaultConfig()
	cfg.TCPGamma = 0
	cfg.LatencyFactor = 1
	return NewKernel(p.Snapshot(), cfg)
}

func TestMSGSendRecv(t *testing.T) {
	k := kernelOnPair(t)
	var got Message
	var recvTime float64
	if err := k.Spawn("sender", "a", func(p *Process) error {
		return p.Send("box", "hello", 92e6)
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Spawn("receiver", "b", func(p *Process) error {
		m, err := p.Recv("box")
		got = m
		recvTime = p.Now()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Payload != "hello" || got.Size != 92e6 || got.Source != "a" {
		t.Errorf("message = %+v", got)
	}
	// 92e6 bytes at 0.92*100e6 B/s = 1s.
	if math.Abs(recvTime-1) > 1e-6 {
		t.Errorf("receive time = %v, want 1", recvTime)
	}
}

func TestMSGRecvBeforeSend(t *testing.T) {
	k := kernelOnPair(t)
	var order []string
	if err := k.Spawn("receiver", "b", func(p *Process) error {
		_, err := p.Recv("box")
		order = append(order, "recv")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Spawn("sender", "a", func(p *Process) error {
		if err := p.Sleep(2); err != nil {
			return err
		}
		err := p.Send("box", 42, 92e6)
		order = append(order, "send")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
	if k.Now() < 3-1e-6 {
		t.Errorf("end time = %v, want >= 3 (2s sleep + 1s transfer)", k.Now())
	}
}

func TestMSGPingPong(t *testing.T) {
	k := kernelOnPair(t)
	const rounds = 5
	if err := k.Spawn("ping", "a", func(p *Process) error {
		for i := 0; i < rounds; i++ {
			if err := p.Send("to-b", i, 1e6); err != nil {
				return err
			}
			if _, err := p.Recv("to-a"); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var seen []int
	if err := k.Spawn("pong", "b", func(p *Process) error {
		for i := 0; i < rounds; i++ {
			m, err := p.Recv("to-b")
			if err != nil {
				return err
			}
			seen = append(seen, m.Payload.(int))
			if err := p.Send("to-a", nil, 1e6); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != rounds {
		t.Fatalf("rounds = %d, want %d", len(seen), rounds)
	}
	for i, v := range seen {
		if v != i {
			t.Errorf("message %d = %d", i, v)
		}
	}
}

func TestMSGExecute(t *testing.T) {
	k := kernelOnPair(t) // hosts at 1e9 flops
	var end float64
	if err := k.Spawn("worker", "a", func(p *Process) error {
		if err := p.Execute(3e9); err != nil {
			return err
		}
		end = p.Now()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(end-3) > 1e-9 {
		t.Errorf("execute end = %v, want 3", end)
	}
}

func TestMSGSleep(t *testing.T) {
	k := kernelOnPair(t)
	var end float64
	if err := k.Spawn("sleeper", "a", func(p *Process) error {
		if err := p.Sleep(1.5); err != nil {
			return err
		}
		if err := p.Sleep(0); err != nil { // no-op
			return err
		}
		end = p.Now()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(end-1.5) > 1e-9 {
		t.Errorf("end = %v, want 1.5", end)
	}
}

func TestMSGDeadlockDetected(t *testing.T) {
	k := kernelOnPair(t)
	if err := k.Spawn("stuck", "a", func(p *Process) error {
		_, err := p.Recv("never")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	err := k.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestMSGProcessErrorPropagates(t *testing.T) {
	k := kernelOnPair(t)
	boom := errors.New("boom")
	if err := k.Spawn("failing", "a", func(p *Process) error {
		return boom
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestMSGPanicRecovered(t *testing.T) {
	k := kernelOnPair(t)
	if err := k.Spawn("panicky", "a", func(p *Process) error {
		panic("argh")
	}); err != nil {
		t.Fatal(err)
	}
	err := k.Run()
	if err == nil {
		t.Fatal("panic not reported")
	}
}

func TestMSGSpawnUnknownHost(t *testing.T) {
	k := kernelOnPair(t)
	if err := k.Spawn("ghost", "nowhere", func(p *Process) error { return nil }); err == nil {
		t.Fatal("unknown host accepted")
	}
}

func TestMSGSameHostMessaging(t *testing.T) {
	k := kernelOnPair(t)
	var at float64
	if err := k.Spawn("s", "a", func(p *Process) error {
		return p.Send("local", "x", 1e9)
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Spawn("r", "a", func(p *Process) error {
		_, err := p.Recv("local")
		at = p.Now()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 0 {
		t.Errorf("same-host delivery at %v, want 0", at)
	}
}

// TestMSGTransferScenario mirrors how PNFS instantiates simulations
// (§IV-C2): one sender and one receiver process per requested transfer,
// tracking completion in simulated time. The result must equal the batch
// Simulation's prediction.
func TestMSGMatchesBatchSimulation(t *testing.T) {
	build := func() *platform.Platform { return nil } // silence unused helper pattern
	_ = build
	mk := func(t *testing.T) *platform.Platform {
		return buildPair(t, 125e6, 1e-4)
	}
	cfg := DefaultConfig()

	batch, err := Predict(mk(t).Snapshot(), cfg, []Transfer{
		{Src: "a", Dst: "b", Size: 7e8},
		{Src: "a", Dst: "b", Size: 3e8},
	})
	if err != nil {
		t.Fatal(err)
	}

	k := NewKernel(mk(t).Snapshot(), cfg)
	durations := make([]float64, 2)
	for i, size := range []float64{7e8, 3e8} {
		i, size := i, size
		box := "t" + string(rune('0'+i))
		if err := k.Spawn("send"+box, "a", func(p *Process) error {
			return p.Send(box, nil, size)
		}); err != nil {
			t.Fatal(err)
		}
		if err := k.Spawn("recv"+box, "b", func(p *Process) error {
			_, err := p.Recv(box)
			durations[i] = p.Now()
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range durations {
		if math.Abs(durations[i]-batch[i].Duration)/batch[i].Duration > 1e-9 {
			t.Errorf("transfer %d: MSG %v vs batch %v", i, durations[i], batch[i].Duration)
		}
	}
}

func TestMSGMasterWorkers(t *testing.T) {
	// A master dispatches compute tasks to two workers and collects acks:
	// the classic MSG example, exercising spawn-from-process and mixed
	// comm/exec activities.
	p := platform.New("root", platform.RoutingFull)
	as := p.Root()
	as.AddHost("master", 1e9)
	for _, w := range []string{"w1", "w2"} {
		as.AddHost(w, 2e9)
		l, _ := as.AddLink(w+"_l", 125e6, 1e-4, platform.Shared)
		as.AddRoute("master", w, []platform.LinkUse{{Link: l, Direction: platform.None}}, true)
	}
	cfg := DefaultConfig()
	k := NewKernel(p.Snapshot(), cfg)

	// Rendezvous semantics (send blocks until receipt) mean the master
	// must not wait for acks it can only get after further sends; it
	// dispatches everything, then collects one completion report per
	// worker.
	const tasks = 6
	results := 0
	if err := k.Spawn("master", "master", func(proc *Process) error {
		for i := 0; i < tasks; i++ {
			box := []string{"w1", "w2"}[i%2]
			if err := proc.Send("work:"+box, 1e9 /*flops*/, 1e6); err != nil {
				return err
			}
		}
		for i := 0; i < 2; i++ {
			m, err := proc.Recv("done")
			if err != nil {
				return err
			}
			results += m.Payload.(int)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"w1", "w2"} {
		w := w
		if err := k.Spawn(w, w, func(proc *Process) error {
			for i := 0; i < tasks/2; i++ {
				m, err := proc.Recv("work:" + w)
				if err != nil {
					return err
				}
				if err := proc.Execute(m.Payload.(float64)); err != nil {
					return err
				}
			}
			return proc.Send("done", tasks/2, 1e3)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if results != tasks {
		t.Errorf("results = %d, want %d", results, tasks)
	}
	if k.Now() <= 0 {
		t.Error("no simulated time elapsed")
	}
}
