package resilience

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Journal is the daemon's crash-recovery write-ahead log: every accepted
// unit of work is appended (id + opaque payload, fsynced) before it can
// run, and marked done when it reaches a terminal state. After a SIGKILL
// the journal's pending set is exactly the accepted-but-unfinished work,
// and the daemon resumes it on restart — in-flight compute is lost,
// accepted work is not.
//
// One journal serves every writer in the process: the scheduler's jobs
// and the fleet coordinator's sweeps and shards share one file, split by
// ID namespace, and each writer's Recover reads back only the records
// in its own namespace and leaves the rest to their owner. The journal
// itself knows nothing of namespaces — so it compacts on Done only once
// every writer's records have retired.
//
// Format: an 8-byte magic header followed by CRC-framed records
//
//	'A' | u32 idLen | id | u32 payloadLen | payload | u32 crc
//	'D' | u32 idLen | id |                           u32 crc
//
// Appends are fsynced, so a record either survives whole or is a
// truncated tail; OpenJournal tolerates a torn tail (a crash mid-append)
// by dropping it, and compacts the file down to the pending set so the
// WAL stays small across restarts.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	pending map[string][]byte
	warn    error
	appends int
	closed  bool
}

const journalMagic = "AIRWAL01"

// journal record types.
const (
	recAccept = byte('A')
	recDone   = byte('D')
)

// OpenJournal opens (or creates) the journal at path, replays it into
// the pending set — dropping a torn tail — and compacts it. When the
// replay was partial (bad header, corrupt or torn records dropped) the
// journal opens anyway and Warning reports what was lost, so operators
// can tell recovery was incomplete.
func OpenJournal(path string) (*Journal, error) {
	pending, warn, err := readJournalFile(path)
	if err != nil {
		return nil, err
	}
	j := &Journal{path: path, pending: pending, warn: warn}
	if err := j.compact(); err != nil {
		return nil, err
	}
	return j, nil
}

// ReadJournal reads the pending set of a journal file without opening it
// for writing (inspection; a missing file is an empty set).
func ReadJournal(path string) (map[string][]byte, error) {
	pending, _, err := readJournalFile(path)
	return pending, err
}

// readJournalFile parses accepted-minus-done. A clean end-of-file
// returns a nil warn; an unrecognisable header or a corrupt/torn record
// (which ends the replay — everything before it was fsynced whole and
// stands) returns the recovered prefix plus a non-nil warn describing
// what was dropped.
func readJournalFile(path string) (pending map[string][]byte, warn, err error) {
	pending = make(map[string][]byte)
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return pending, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("resilience: journal: %w", err)
	}
	if len(raw) < len(journalMagic) || string(raw[:len(journalMagic)]) != journalMagic {
		warn = fmt.Errorf("resilience: journal %s: unrecognisable header, ignoring %d bytes (pending work, if any, is lost)", path, len(raw))
		return pending, warn, nil
	}
	rest := raw[len(journalMagic):]
	for len(rest) > 0 {
		typ, id, payload, n, rerr := readRecord(rest)
		if rerr != nil {
			warn = fmt.Errorf("resilience: journal %s: dropped %d trailing bytes after %d recovered entries: %w", path, len(rest), len(pending), rerr)
			return pending, warn, nil
		}
		rest = rest[n:]
		switch typ {
		case recAccept:
			pending[id] = payload
		case recDone:
			delete(pending, id)
		}
	}
	return pending, nil, nil // clean record boundary
}

// readRecord parses the CRC-framed record at the front of b and returns
// its length in bytes. A record cut short — a torn tail — is
// io.ErrUnexpectedEOF.
func readRecord(b []byte) (typ byte, id string, payload []byte, n int, err error) {
	typ = b[0]
	if typ != recAccept && typ != recDone {
		return 0, "", nil, 0, fmt.Errorf("resilience: journal: bad record type %d", typ)
	}
	idb, n, err := readField(b, 1)
	if err != nil {
		return 0, "", nil, 0, err
	}
	if typ == recAccept {
		if payload, n, err = readField(b, n); err != nil {
			return 0, "", nil, 0, err
		}
	}
	if len(b)-n < 4 {
		return 0, "", nil, 0, io.ErrUnexpectedEOF
	}
	if crc32.ChecksumIEEE(b[:n]) != binary.LittleEndian.Uint32(b[n:]) {
		return 0, "", nil, 0, fmt.Errorf("resilience: journal: record checksum mismatch")
	}
	return typ, string(idb), payload, n + 4, nil
}

// readField reads the u32-length-prefixed field at b[off:] and returns it
// with the offset just past it. The declared length is checked against
// the bytes present before anything is allocated from it, so a corrupt
// length costs an error, not memory.
func readField(b []byte, off int) ([]byte, int, error) {
	if len(b)-off < 4 {
		return nil, 0, io.ErrUnexpectedEOF
	}
	n := uint64(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if n > uint64(len(b)-off) {
		return nil, 0, io.ErrUnexpectedEOF
	}
	end := off + int(n)
	return append([]byte(nil), b[off:end]...), end, nil
}

// appendRecord frames and writes one record to w.
func appendRecord(w io.Writer, typ byte, id string, payload []byte) error {
	var frame bytes.Buffer
	frame.WriteByte(typ)
	if err := binary.Write(&frame, binary.LittleEndian, uint32(len(id))); err != nil {
		return err
	}
	frame.WriteString(id)
	if typ == recAccept {
		if err := binary.Write(&frame, binary.LittleEndian, uint32(len(payload))); err != nil {
			return err
		}
		frame.Write(payload)
	}
	if err := binary.Write(&frame, binary.LittleEndian, crc32.ChecksumIEEE(frame.Bytes())); err != nil {
		return err
	}
	_, err := w.Write(frame.Bytes())
	return err
}

// compact rewrites the journal as magic + the pending accepts (atomic:
// temp file, fsync, rename) and reopens it for appending; j.mu held or
// journal not yet shared.
func (j *Journal) compact() error {
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, "tmp-wal-*")
	if err != nil {
		return fmt.Errorf("resilience: journal: %w", err)
	}
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resilience: journal: %w", err)
	}
	if _, err := tmp.WriteString(journalMagic); err != nil {
		return fail(err)
	}
	ids := make([]string, 0, len(j.pending))
	for id := range j.pending {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := appendRecord(tmp, recAccept, id, j.pending[id]); err != nil {
			return fail(err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resilience: journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resilience: journal: %w", err)
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("resilience: journal: %w", err)
	}
	j.f = f
	j.appends = 0
	return nil
}

// Accept journals an accepted job: the record is on disk (fsynced)
// before Accept returns, so a crash after acceptance cannot lose it.
func (j *Journal) Accept(id string, payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("resilience: journal closed")
	}
	if err := appendRecord(j.f, recAccept, id, payload); err != nil {
		return fmt.Errorf("resilience: journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("resilience: journal: %w", err)
	}
	j.pending[id] = append([]byte(nil), payload...)
	j.appends++
	return nil
}

// Done journals a job's terminal state. Unknown ids are a no-op (the
// entry was already retired, e.g. by a restart's re-submission pass).
// When the pending set empties after many appends the journal compacts
// back to the bare header.
func (j *Journal) Done(id string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("resilience: journal closed")
	}
	if _, ok := j.pending[id]; !ok {
		return nil
	}
	if err := appendRecord(j.f, recDone, id, nil); err != nil {
		return fmt.Errorf("resilience: journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("resilience: journal: %w", err)
	}
	delete(j.pending, id)
	j.appends++
	if len(j.pending) == 0 && j.appends >= 128 {
		return j.compact()
	}
	return nil
}

// Pending snapshots the accepted-but-unfinished set (id -> payload).
func (j *Journal) Pending() map[string][]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string][]byte, len(j.pending))
	for id, p := range j.pending {
		out[id] = append([]byte(nil), p...)
	}
	return out
}

// Warning reports whether OpenJournal's replay was partial: non-nil when
// the header was unrecognisable or corrupt/torn records were dropped, so
// some accepted work may not have been recovered. The journal is still
// usable; this exists so operators see that recovery was incomplete.
func (j *Journal) Warning() error { return j.warn }

// Close releases the file handle; the journal stays on disk.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}
