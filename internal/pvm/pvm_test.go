package pvm

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestBufferPackUnpackRoundTrip(t *testing.T) {
	b := NewBuffer()
	b.PackInt(-42)
	b.PackDouble(3.14159)
	b.PackDoubles([]float64{1, 2, 3})

	i, err := b.UnpackInt()
	if err != nil || i != -42 {
		t.Fatalf("UnpackInt = %d, %v", i, err)
	}
	d, err := b.UnpackDouble()
	if err != nil || d != 3.14159 {
		t.Fatalf("UnpackDouble = %g, %v", d, err)
	}
	ds, err := b.UnpackDoubles()
	if err != nil || len(ds) != 3 || ds[2] != 3 {
		t.Fatalf("UnpackDoubles = %v, %v", ds, err)
	}
	// Reading past the end errors.
	if _, err := b.UnpackInt(); err == nil {
		t.Error("read past end accepted")
	}
}

func TestBufferQuick(t *testing.T) {
	f := func(xs []float64, n int64) bool {
		b := NewBuffer()
		b.PackDoubles(xs)
		b.PackInt(int(n))
		got, err := b.UnpackDoubles()
		if err != nil || len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if got[i] != xs[i] && !(xs[i] != xs[i] && got[i] != got[i]) { // NaN-safe
				return false
			}
		}
		gn, err := b.UnpackInt()
		return err == nil && gn == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSendRecv(t *testing.T) {
	m := NewMachine()
	main := m.SpawnHandle()
	echo := m.Spawn(func(t *Task) {
		buf, src, err := t.Recv(AnySource, AnyTag)
		if err != nil {
			return
		}
		v, _ := buf.UnpackDouble()
		reply := NewBuffer()
		reply.PackDouble(v * 2)
		_ = t.Send(src, 7, reply)
	})
	out := NewBuffer()
	out.PackDouble(21)
	if err := main.Send(echo, 1, out); err != nil {
		t.Fatal(err)
	}
	buf, src, err := main.Recv(echo, 7)
	if err != nil {
		t.Fatal(err)
	}
	if src != echo {
		t.Errorf("reply from %d, want %d", src, echo)
	}
	v, _ := buf.UnpackDouble()
	if v != 42 {
		t.Errorf("echo returned %g", v)
	}
	m.Wait()
}

func TestRecvTagMatching(t *testing.T) {
	m := NewMachine()
	main := m.SpawnHandle()
	var wg sync.WaitGroup
	wg.Add(1)
	sender := m.Spawn(func(t *Task) {
		defer wg.Done()
		a := NewBuffer()
		a.PackInt(1)
		_ = t.Send(main.tid, 100, a)
		b := NewBuffer()
		b.PackInt(2)
		_ = t.Send(main.tid, 200, b)
	})
	_ = sender
	wg.Wait()
	// Receive tag 200 first even though 100 arrived first: 100 must be
	// held pending, then delivered on request.
	buf, _, err := main.Recv(AnySource, 200)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := buf.UnpackInt(); v != 2 {
		t.Errorf("tag 200 carried %d", v)
	}
	buf, _, err = main.Recv(AnySource, 100)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := buf.UnpackInt(); v != 1 {
		t.Errorf("tag 100 carried %d", v)
	}
	m.Wait()
}

func TestSendUnknownTask(t *testing.T) {
	m := NewMachine()
	main := m.SpawnHandle()
	if err := main.Send(999, 0, NewBuffer()); err == nil {
		t.Error("send to unknown task accepted")
	}
}

func TestStats(t *testing.T) {
	m := NewMachine()
	a := m.SpawnHandle()
	b := m.SpawnHandle()
	buf := NewBuffer()
	buf.PackDoubles(make([]float64, 100))
	if err := a.Send(b.tid, 1, buf); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Recv(a.tid, 1); err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.MsgsSent != 1 || sa.BytesSent != int64(len(buf.data)) {
		t.Errorf("sender stats: %+v", sa)
	}
	if sb.MsgsRecv != 1 || sb.BytesRecv != int64(len(buf.data)) {
		t.Errorf("receiver stats: %+v", sb)
	}
}

func TestMcastAndGroups(t *testing.T) {
	m := NewMachine()
	main := m.SpawnHandle()
	const n = 4
	var wg sync.WaitGroup
	wg.Add(n)
	got := make([]float64, n)
	tids := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		tids[i] = m.Spawn(func(t *Task) {
			defer wg.Done()
			buf, _, err := t.Recv(AnySource, 5)
			if err != nil {
				return
			}
			v, _ := buf.UnpackDouble()
			got[i] = v
		})
	}
	buf := NewBuffer()
	buf.PackDouble(1.5)
	if err := main.Mcast(tids, 5, buf); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, v := range got {
		if v != 1.5 {
			t.Errorf("worker slot %d got %g", i, v)
		}
	}
	m.Wait()
}

func TestSpawnNameAndTid(t *testing.T) {
	m := NewMachine()
	a := m.SpawnHandle()
	if a.tid <= 0 {
		t.Errorf("task identity: %d", a.tid)
	}
	b := m.SpawnHandle()
	if b.tid == a.tid {
		t.Error("tids not unique")
	}
}
