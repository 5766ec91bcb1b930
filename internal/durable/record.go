// Package durable is the persistence subsystem: columnar snapshots (the
// codec lives in the columnar subpackage), a write-ahead log for the
// update stream between snapshots, and boot-time recovery that loads the
// snapshot, replays the WAL tail, and checkpoints on a size threshold.
//
// The WAL records *decoded* rdf.Terms, never dictionary IDs: the interval
// re-encoding permutes IDs on every TBox update, so an ID-based log would
// dangle after the first UpdateSchema. Terms are stable forever.
package durable

import (
	"encoding/binary"
	"fmt"

	"repro/internal/rdf"
)

// Op tags a WAL record with the update it logs.
type Op byte

const (
	// OpInsert logs an InsertData batch.
	OpInsert Op = 1
	// OpDelete logs a DeleteData batch.
	OpDelete Op = 2
	// OpSchema logs an UpdateSchema batch (TBox additions).
	OpSchema Op = 3
)

func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpSchema:
		return "schema"
	default:
		return fmt.Sprintf("op(%d)", byte(o))
	}
}

// Record is one logged update: an operation and the triples it carries.
type Record struct {
	Op      Op
	Triples []rdf.Triple
}

// encodeRecordPayload serializes the record body (everything the length
// prefix and CRC frame around): op byte, triple count, then each triple's
// three terms as kind byte + length-prefixed strings (literals add
// datatype and lang).
func encodeRecordPayload(buf []byte, rec Record) []byte {
	buf = append(buf, byte(rec.Op))
	buf = binary.AppendUvarint(buf, uint64(len(rec.Triples)))
	for _, t := range rec.Triples {
		buf = appendTerm(buf, t.S)
		buf = appendTerm(buf, t.P)
		buf = appendTerm(buf, t.O)
	}
	return buf
}

func appendTerm(b []byte, t rdf.Term) []byte {
	b = append(b, byte(t.Kind))
	b = appendWALString(b, t.Value)
	if t.Kind == rdf.Literal {
		b = appendWALString(b, t.Datatype)
		b = appendWALString(b, t.Lang)
	}
	return b
}

func appendWALString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// minTripleBytes is the least a triple takes in a payload: three kind bytes
// and three length bytes.
const minTripleBytes = 6

// decodeRecordPayload parses a record body. Every triple must decode and
// the payload must be fully consumed — trailing bytes mean corruption.
func decodeRecordPayload(raw []byte) (Record, error) {
	if len(raw) == 0 {
		return Record{}, fmt.Errorf("durable: empty record payload")
	}
	rec := Record{Op: Op(raw[0])}
	switch rec.Op {
	case OpInsert, OpDelete, OpSchema:
	default:
		return Record{}, fmt.Errorf("durable: unknown record op %d", raw[0])
	}
	raw = raw[1:]
	n, sz := binary.Uvarint(raw)
	if sz <= 0 {
		return Record{}, fmt.Errorf("durable: record truncated in triple count")
	}
	raw = raw[sz:]
	if n > uint64(len(raw)/minTripleBytes) {
		// This cheap bound stops a corrupt count from driving allocation.
		return Record{}, fmt.Errorf("durable: record claims %d triples in %d bytes", n, len(raw))
	}
	rec.Triples = make([]rdf.Triple, 0, n)
	var err error
	for i := uint64(0); i < n; i++ {
		var t rdf.Triple
		if t.S, raw, err = readTerm(raw); err != nil {
			return Record{}, fmt.Errorf("durable: triple %d subject: %w", i, err)
		}
		if t.P, raw, err = readTerm(raw); err != nil {
			return Record{}, fmt.Errorf("durable: triple %d predicate: %w", i, err)
		}
		if t.O, raw, err = readTerm(raw); err != nil {
			return Record{}, fmt.Errorf("durable: triple %d object: %w", i, err)
		}
		rec.Triples = append(rec.Triples, t)
	}
	if len(raw) != 0 {
		return Record{}, fmt.Errorf("durable: %d trailing bytes after record", len(raw))
	}
	return rec, nil
}

func readTerm(b []byte) (rdf.Term, []byte, error) {
	if len(b) == 0 {
		return rdf.Term{}, nil, fmt.Errorf("truncated term")
	}
	t := rdf.Term{Kind: rdf.Kind(b[0])}
	b = b[1:]
	var err error
	if t.Value, b, err = readWALString(b); err != nil {
		return rdf.Term{}, nil, err
	}
	if t.Kind == rdf.Literal {
		if t.Datatype, b, err = readWALString(b); err != nil {
			return rdf.Term{}, nil, err
		}
		if t.Lang, b, err = readWALString(b); err != nil {
			return rdf.Term{}, nil, err
		}
	}
	if !t.Valid() {
		return rdf.Term{}, nil, fmt.Errorf("invalid term %#v", t)
	}
	return t, b, nil
}

func readWALString(b []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return "", nil, fmt.Errorf("truncated string (len %d, %d bytes left)", n, len(b))
	}
	return string(b[sz : sz+int(n)]), b[sz+int(n):], nil
}
