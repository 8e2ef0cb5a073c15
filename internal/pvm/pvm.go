// Package pvm is a small in-process message-passing library in the shape
// of PVM 3, the system the paper's population exposure module (PopExp) was
// parallelised with. It provides spawned tasks with typed pack/unpack
// message buffers, point-to-point send/receive with tag matching,
// multicast, and per-task traffic statistics that the foreign-module
// coupling layer uses to charge the virtual machine.
//
// Tasks are goroutines and mailboxes are channels; the library is a real,
// working message-passing substrate (PopExp genuinely computes through
// it), while remaining deterministic when receives name their source.
package pvm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// AnySource matches any sending task in Recv.
const AnySource = -1

// AnyTag matches any message tag in Recv.
const AnyTag = -1

// message is one in-flight message.
type message struct {
	src, tag int
	data     []byte
}

// Machine is a PVM virtual machine: a set of tasks that can exchange
// messages.
type Machine struct {
	mu      sync.Mutex
	nextTid int
	tasks   map[int]*Task
	wg      sync.WaitGroup
}

// NewMachine creates an empty PVM machine.
func NewMachine() *Machine {
	return &Machine{
		nextTid: 1,
		tasks:   make(map[int]*Task),
	}
}

// Task is one PVM task: a mailbox plus traffic counters.
type Task struct {
	m   *Machine
	tid int

	inbox chan message
	// pending holds messages received from the mailbox but not yet
	// matched (tag/source mismatch).
	pending []message

	statsMu   sync.Mutex
	msgsSent  int
	bytesSent int64
	msgsRecv  int
	bytesRecv int64
}

// Stats reports a task's cumulative traffic.
type Stats struct {
	MsgsSent  int
	BytesSent int64
	MsgsRecv  int
	BytesRecv int64
}

// Spawn creates a task running fn in a goroutine and returns its tid
// immediately. fn receives the task handle.
func (m *Machine) Spawn(fn func(*Task)) int {
	m.mu.Lock()
	tid := m.nextTid
	m.nextTid++
	t := &Task{m: m, tid: tid, inbox: make(chan message, 1024)}
	m.tasks[tid] = t
	m.mu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		fn(t)
	}()
	return tid
}

// SpawnHandle is Spawn for callers that drive the task from the current
// goroutine instead (no goroutine is started).
func (m *Machine) SpawnHandle() *Task {
	m.mu.Lock()
	defer m.mu.Unlock()
	tid := m.nextTid
	m.nextTid++
	t := &Task{m: m, tid: tid, inbox: make(chan message, 1024)}
	m.tasks[tid] = t
	return t
}

// Wait blocks until every spawned task function has returned.
func (m *Machine) Wait() { m.wg.Wait() }

// Stats returns the task's traffic counters.
func (t *Task) Stats() Stats {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return Stats{t.msgsSent, t.bytesSent, t.msgsRecv, t.bytesRecv}
}

// Send delivers a buffer's contents to the task dst with a tag.
func (t *Task) Send(dst, tag int, b *Buffer) error {
	t.m.mu.Lock()
	target, ok := t.m.tasks[dst]
	t.m.mu.Unlock()
	if !ok {
		return fmt.Errorf("pvm: send to unknown task %d", dst)
	}
	data := append([]byte(nil), b.data...)
	target.inbox <- message{src: t.tid, tag: tag, data: data}
	t.statsMu.Lock()
	t.msgsSent++
	t.bytesSent += int64(len(data))
	t.statsMu.Unlock()
	return nil
}

// Recv blocks until a message matching src (or AnySource) and tag (or
// AnyTag) arrives, returning a buffer positioned for unpacking.
func (t *Task) Recv(src, tag int) (*Buffer, int, error) {
	match := func(msg message) bool {
		return (src == AnySource || msg.src == src) && (tag == AnyTag || msg.tag == tag)
	}
	for i, msg := range t.pending {
		if match(msg) {
			t.pending = append(t.pending[:i], t.pending[i+1:]...)
			return t.accept(msg)
		}
	}
	for msg := range t.inbox {
		if match(msg) {
			return t.accept(msg)
		}
		t.pending = append(t.pending, msg)
	}
	return nil, 0, fmt.Errorf("pvm: task %d mailbox closed", t.tid)
}

func (t *Task) accept(msg message) (*Buffer, int, error) {
	t.statsMu.Lock()
	t.msgsRecv++
	t.bytesRecv += int64(len(msg.data))
	t.statsMu.Unlock()
	return &Buffer{data: msg.data}, msg.src, nil
}

// Mcast sends the buffer to every listed destination.
func (t *Task) Mcast(dsts []int, tag int, b *Buffer) error {
	for _, d := range dsts {
		if err := t.Send(d, tag, b); err != nil {
			return err
		}
	}
	return nil
}

// Buffer is a typed pack/unpack message buffer (pvm_initsend /
// pvm_pkdouble / pvm_upkdouble, in PVM terms).
type Buffer struct {
	data []byte
	pos  int
}

// NewBuffer returns an empty send buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// PackInt appends an int64.
func (b *Buffer) PackInt(v int) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(int64(v)))
	b.data = append(b.data, tmp[:]...)
}

// PackDouble appends a float64.
func (b *Buffer) PackDouble(v float64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
	b.data = append(b.data, tmp[:]...)
}

// PackDoubles appends a float64 slice (length-prefixed).
func (b *Buffer) PackDoubles(v []float64) {
	b.PackInt(len(v))
	for _, x := range v {
		b.PackDouble(x)
	}
}

// UnpackInt reads an int64.
func (b *Buffer) UnpackInt() (int, error) {
	if b.pos+8 > len(b.data) {
		return 0, fmt.Errorf("pvm: unpack past end of buffer")
	}
	v := int64(binary.LittleEndian.Uint64(b.data[b.pos:]))
	b.pos += 8
	return int(v), nil
}

// UnpackDouble reads a float64.
func (b *Buffer) UnpackDouble() (float64, error) {
	if b.pos+8 > len(b.data) {
		return 0, fmt.Errorf("pvm: unpack past end of buffer")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(b.data[b.pos:]))
	b.pos += 8
	return v, nil
}

// UnpackDoubles reads a length-prefixed float64 slice.
func (b *Buffer) UnpackDoubles() ([]float64, error) {
	n, err := b.UnpackInt()
	if err != nil {
		return nil, err
	}
	if n < 0 || b.pos+8*n > len(b.data) {
		return nil, fmt.Errorf("pvm: corrupt double array length %d", n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i], err = b.UnpackDouble()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
