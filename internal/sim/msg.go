package sim

import (
	"errors"
	"fmt"
	"sort"

	"pilgrim/internal/platform"
)

// This file implements the MSG-style process API (paper §IV-A: "In MSG,
// applications are modeled as a set of processes, running on a set of
// hosts, executing tasks or exchanging data through the network").
//
// Processes are goroutines scheduled cooperatively by the Kernel: exactly
// one process runs at a time, and it yields whenever it performs a
// blocking simulated action (Send, Recv, Execute, Sleep). The kernel then
// advances simulated time with the fluid engine until the action
// completes. Scheduling is deterministic: runnable processes execute in
// spawn order at each simulated instant.

// ErrDeadlock is returned by Kernel.Run when every live process is blocked
// and no simulated event can unblock any of them.
var ErrDeadlock = errors.New("sim: deadlock: all processes blocked")

// Process is a simulated process, created with Kernel.Spawn. Its methods
// may only be called from within its own body function.
type Process struct {
	name   string
	host   *platform.Host
	kernel *Kernel

	resume chan struct{}
	yield  chan struct{}

	finished bool
	err      error
	commErr  error // outcome of the last rendezvous communication

	// wait state
	waitAct  ActivityID
	inActBox bool // true while blocked on an activity
}

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// Host returns the host the process runs on.
func (p *Process) Host() *platform.Host { return p.host }

// Now returns the current simulated time.
func (p *Process) Now() float64 { return p.kernel.engine.Now() }

// Message is what Recv returns: the payload and transfer metadata.
type Message struct {
	Payload interface{}
	Size    float64
	Source  string // sender host name
}

// pendingSend is a sender parked in a mailbox waiting for a receiver.
type pendingSend struct {
	proc    *Process
	payload interface{}
	size    float64
}

// pendingRecv is a receiver parked in a mailbox waiting for a sender.
type pendingRecv struct {
	proc *Process
	out  *Message
}

type mailbox struct {
	sends []*pendingSend
	recvs []*pendingRecv
}

// Kernel runs MSG-style processes over a fluid engine.
type Kernel struct {
	engine    *Engine
	procs     []*Process
	runnable  []*Process
	waiters   map[ActivityID][]*Process
	mailboxes map[string]*mailbox
	running   bool
}

// NewKernel creates a kernel over one compiled platform epoch and model
// configuration.
func NewKernel(snap *platform.Snapshot, cfg Config) *Kernel {
	return &Kernel{
		engine:    NewEngineSnapshot(snap, cfg),
		waiters:   make(map[ActivityID][]*Process),
		mailboxes: make(map[string]*mailbox),
	}
}

// Engine exposes the underlying fluid engine.
func (k *Kernel) Engine() *Engine { return k.engine }

// Now returns the current simulated time.
func (k *Kernel) Now() float64 { return k.engine.Now() }

// Spawn creates a process named name on the given host, running body.
// The process starts at the current simulated time. Spawn may be called
// before Run or from inside a running process.
func (k *Kernel) Spawn(name, host string, body func(p *Process) error) error {
	h := k.engine.Platform().Host(host)
	if h == nil {
		return fmt.Errorf("sim: unknown host %q for process %q", host, name)
	}
	p := &Process{
		name:   name,
		host:   h,
		kernel: k,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	k.procs = append(k.procs, p)
	k.runnable = append(k.runnable, p)
	go func() {
		<-p.resume
		p.err = safeRun(body, p)
		p.finished = true
		p.yield <- struct{}{}
	}()
	return nil
}

func safeRun(body func(*Process) error, p *Process) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
		}
	}()
	return body(p)
}

// step lets one process run until it blocks or finishes.
func (k *Kernel) stepProcess(p *Process) {
	p.resume <- struct{}{}
	<-p.yield
}

// block parks the calling process until the kernel resumes it.
// Must be called from inside the process goroutine.
func (p *Process) block() {
	p.yield <- struct{}{}
	<-p.resume
}

// waitActivity parks the process until the engine completes the activity.
func (p *Process) waitActivity(id ActivityID) {
	if done, _ := p.kernel.engine.Done(id); done {
		return
	}
	p.waitAct = id
	p.inActBox = true
	p.kernel.waiters[id] = append(p.kernel.waiters[id], p)
	p.block()
}

// Execute simulates flops floating-point operations on the process's
// host. Concurrent executions on one host share its speed.
func (p *Process) Execute(flops float64) error {
	id, err := p.kernel.engine.AddExec(p.host.ID, flops, p.Now(), nil)
	if err != nil {
		return err
	}
	p.waitActivity(id)
	return nil
}

// Sleep suspends the process for d simulated seconds.
func (p *Process) Sleep(d float64) error {
	if d == 0 {
		return nil
	}
	id, err := p.kernel.engine.AddTimer(d, p.Now(), nil)
	if err != nil {
		return err
	}
	p.waitActivity(id)
	return nil
}

// Send transmits size bytes carrying payload to the named mailbox. It
// blocks until a receiver has taken the message and the simulated
// transfer has completed (MSG rendezvous semantics).
func (p *Process) Send(mbox string, payload interface{}, size float64) error {
	k := p.kernel
	mb := k.mbox(mbox)
	if len(mb.recvs) > 0 {
		r := mb.recvs[0]
		mb.recvs = mb.recvs[1:]
		return k.pair(p, r, payload, size)
	}
	ps := &pendingSend{proc: p, payload: payload, size: size}
	mb.sends = append(mb.sends, ps)
	p.block() // woken by a matching Recv via pair(), after comm completes
	return p.commErr
}

// Recv waits for a message on the named mailbox.
func (p *Process) Recv(mbox string) (Message, error) {
	k := p.kernel
	mb := k.mbox(mbox)
	var msg Message
	if len(mb.sends) > 0 {
		s := mb.sends[0]
		mb.sends = mb.sends[1:]
		pr := &pendingRecv{proc: p, out: &msg}
		if err := k.startComm(s, pr); err != nil {
			// The sender is parked; propagate the error to both sides.
			s.proc.commErr = err
			k.runnable = append(k.runnable, s.proc)
			return msg, err
		}
		p.block() // woken when the comm completes
		return msg, p.commErr
	}
	pr := &pendingRecv{proc: p, out: &msg}
	mb.recvs = append(mb.recvs, pr)
	p.block() // woken by a matching Send via pair(), after comm completes
	return msg, p.commErr
}

// pair is called from the sender side when a receiver is already waiting.
func (k *Kernel) pair(sender *Process, r *pendingRecv, payload interface{}, size float64) error {
	s := &pendingSend{proc: sender, payload: payload, size: size}
	if err := k.startComm(s, r); err != nil {
		r.proc.commErr = err
		k.runnable = append(k.runnable, r.proc)
		return err
	}
	sender.block()
	return sender.commErr
}

// startComm creates the engine communication for a matched send/recv and
// registers both processes as waiters.
func (k *Kernel) startComm(s *pendingSend, r *pendingRecv) error {
	srcHost := s.proc.host.ID
	dstHost := r.proc.host.ID
	payload, size := s.payload, s.size
	out := r.out
	var id ActivityID
	var err error
	if srcHost == dstHost {
		// Local delivery: MSG models same-host messaging as immediate.
		id, err = k.engine.AddTimer(0, k.engine.Now(), nil)
	} else {
		id, err = k.engine.AddComm(srcHost, dstHost, size, k.engine.Now(), nil)
	}
	if err != nil {
		return err
	}
	*out = Message{Payload: payload, Size: size, Source: srcHost}
	s.proc.commErr = nil
	r.proc.commErr = nil
	k.waiters[id] = append(k.waiters[id], s.proc, r.proc)
	s.proc.inActBox = true
	r.proc.inActBox = true
	return nil
}

func (k *Kernel) mbox(name string) *mailbox {
	mb, ok := k.mailboxes[name]
	if !ok {
		mb = &mailbox{}
		k.mailboxes[name] = mb
	}
	return mb
}

// Run executes all spawned processes to completion, advancing simulated
// time as needed. It returns ErrDeadlock if processes remain blocked with
// no pending event, or the first process error encountered.
func (k *Kernel) Run() error {
	if k.running {
		return errors.New("sim: Kernel.Run called reentrantly")
	}
	k.running = true
	defer func() { k.running = false }()

	for {
		// Drain the runnable queue (processes may spawn more).
		for len(k.runnable) > 0 {
			p := k.runnable[0]
			k.runnable = k.runnable[1:]
			if p.finished {
				continue
			}
			k.stepProcess(p)
			if p.finished && p.err != nil {
				return p.err
			}
		}

		live := 0
		for _, p := range k.procs {
			if !p.finished {
				live++
			}
		}
		if live == 0 {
			return nil
		}

		completed, ok, err := k.engine.Step()
		if err != nil {
			return err
		}
		woke := false
		for _, id := range completed {
			for _, p := range k.waiters[id] {
				p.inActBox = false
				k.runnable = append(k.runnable, p)
				woke = true
			}
			delete(k.waiters, id)
		}
		if !ok && !woke {
			var blocked []string
			for _, p := range k.procs {
				if !p.finished {
					blocked = append(blocked, p.name)
				}
			}
			sort.Strings(blocked)
			return fmt.Errorf("%w: %v", ErrDeadlock, blocked)
		}
	}
}
