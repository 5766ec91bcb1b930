// Package columnar implements the v2 on-disk snapshot format: the
// dictionary term table plus the graph's ID triples, laid out as
// delta-encoded sorted columns, flate-compressed and CRC32C-checksummed
// per section. It replaced the gob blob of the v1 format (which package
// graph now refuses by its magic) with a layout that is both smaller
// — the sorted subject column delta-encodes into mostly one-byte varints,
// and flate squeezes the term table's shared IRI prefixes — and loadable
// with per-column parallelism: every section is independently framed and
// checksummed, so the term table and the three triple columns decode in
// parallel goroutines at boot.
//
// The package is deliberately low-level: it moves []rdf.Term and
// []dict.Triple slices, not *graph.Graph values, so that package graph can
// depend on it (for WriteSnapshot/ReadSnapshot) while the rest of the
// durable subsystem depends on graph — no cycle. For the same reason it
// owns the one atomic file write (WriteFileAtomic) both commit through.
//
// Layout (all integers are unsigned varints unless noted):
//
//	magic   "repro-rdf-snapshot-v2\n"
//	header  nTerms nData nSchema nClasses nProperties
//	section { id(1 byte) rawLen compLen payload(compLen bytes) crc32c(4 bytes LE) }*
//	end     id 0xFF
//
// The CRC is computed over the *compressed* payload (what is actually on
// disk), so corruption is detected before inflate sees the bytes. A short
// read anywhere — header, section frame, payload, CRC, missing end marker
// — is a hard error: a partially copied snapshot can never decode as a
// smaller graph.
package columnar

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/dict"
	"repro/internal/rdf"
)

// Magic identifies a v2 columnar snapshot stream. It is the same length
// as the retired v1 magic, so a reader's one fixed-size peek names either.
const Magic = "repro-rdf-snapshot-v2\n"

// Section identifiers. The decoder requires exactly this set, in this
// order — the format is versioned by magic, not by optional sections.
const (
	secTerms      = 1    // term table: kind,value[,datatype,lang] per term
	secDataS      = 2    // data subject column, delta-encoded (sorted)
	secDataP      = 3    // data property column
	secDataO      = 4    // data object column
	secSchema     = 5    // closed-schema triples, (S,P,O) varint stream
	secClasses    = 6    // declared class IDs
	secProperties = 7    // declared property IDs
	secEnd        = 0xFF // end marker; nothing follows
)

// castagnoli is the CRC32C polynomial table (iSCSI/ext4 flavor).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot is the decoded content of a v2 snapshot: exactly the state a
// graph needs to reconstruct itself with identical dictionary IDs.
type Snapshot struct {
	Terms      []rdf.Term    // Terms[i] is the term with ID i+1
	Data       []dict.Triple // sorted (S,P,O), deduplicated
	Schema     []dict.Triple // closed-schema triples
	Classes    []dict.ID     // declared classes
	Properties []dict.ID     // declared properties
}

// --- encoding ----------------------------------------------------------------

// Write serializes the snapshot. Section payloads are built and
// compressed in parallel (the term table and the three triple columns are
// independent), then framed sequentially so the stream layout stays
// deterministic.
func Write(w io.Writer, s *Snapshot) error {
	type built struct {
		id   byte
		raw  int
		comp []byte
		err  error
	}
	jobs := []struct {
		id    byte
		build func() []byte
	}{
		{secTerms, func() []byte { return encodeTerms(s.Terms) }},
		{secDataS, func() []byte { return encodeDeltaColumn(s.Data, 's') }},
		{secDataP, func() []byte { return encodeColumn(s.Data, 'p') }},
		{secDataO, func() []byte { return encodeColumn(s.Data, 'o') }},
		{secSchema, func() []byte { return encodeTriples(s.Schema) }},
		{secClasses, func() []byte { return encodeIDs(s.Classes) }},
		{secProperties, func() []byte { return encodeIDs(s.Properties) }},
	}
	out := make([]built, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, id byte, build func() []byte) {
			defer wg.Done()
			raw := build()
			comp, err := deflate(raw)
			out[i] = built{id: id, raw: len(raw), comp: comp, err: err}
		}(i, j.id, j.build)
	}
	wg.Wait()

	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	var hdr []byte
	for _, n := range []int{len(s.Terms), len(s.Data), len(s.Schema), len(s.Classes), len(s.Properties)} {
		hdr = binary.AppendUvarint(hdr, uint64(n))
	}
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	for _, b := range out {
		if b.err != nil {
			return fmt.Errorf("columnar: compress section %d: %w", b.id, b.err)
		}
		var frame []byte
		frame = append(frame, b.id)
		frame = binary.AppendUvarint(frame, uint64(b.raw))
		frame = binary.AppendUvarint(frame, uint64(len(b.comp)))
		if _, err := bw.Write(frame); err != nil {
			return err
		}
		if _, err := bw.Write(b.comp); err != nil {
			return err
		}
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(b.comp, castagnoli))
		if _, err := bw.Write(crc[:]); err != nil {
			return err
		}
	}
	if err := bw.WriteByte(secEnd); err != nil {
		return err
	}
	return bw.Flush()
}

func deflate(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(raw); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func encodeTerms(terms []rdf.Term) []byte {
	var b []byte
	for _, t := range terms {
		b = append(b, byte(t.Kind))
		b = appendString(b, t.Value)
		if t.Kind == rdf.Literal {
			b = appendString(b, t.Datatype)
			b = appendString(b, t.Lang)
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// encodeDeltaColumn encodes one position of the (S,P,O)-sorted triples as
// deltas from the previous value: the subject column is non-decreasing,
// so deltas are non-negative and mostly zero — one varint byte each.
func encodeDeltaColumn(ts []dict.Triple, pos byte) []byte {
	b := make([]byte, 0, len(ts))
	prev := uint64(0)
	for _, t := range ts {
		v := uint64(columnValue(t, pos))
		b = binary.AppendUvarint(b, v-prev)
		prev = v
	}
	return b
}

func encodeColumn(ts []dict.Triple, pos byte) []byte {
	b := make([]byte, 0, 2*len(ts))
	for _, t := range ts {
		b = binary.AppendUvarint(b, uint64(columnValue(t, pos)))
	}
	return b
}

func columnValue(t dict.Triple, pos byte) dict.ID {
	switch pos {
	case 's':
		return t.S
	case 'p':
		return t.P
	default:
		return t.O
	}
}

func encodeTriples(ts []dict.Triple) []byte {
	var b []byte
	for _, t := range ts {
		b = binary.AppendUvarint(b, uint64(t.S))
		b = binary.AppendUvarint(b, uint64(t.P))
		b = binary.AppendUvarint(b, uint64(t.O))
	}
	return b
}

func encodeIDs(ids []dict.ID) []byte {
	var b []byte
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(id))
	}
	return b
}

// --- decoding ----------------------------------------------------------------

// Read decodes a v2 snapshot stream, magic included. The framed sections
// are read sequentially (one pass of sequential I/O), then checksummed,
// inflated and decoded in parallel — the term table, each of the three
// data columns and the schema each get a goroutine.
func Read(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("columnar: magic: %w", noEOF(err))
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("columnar: not a v2 snapshot (magic %q)", string(magic))
	}
	var counts [5]uint64
	for i := range counts {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("columnar: header: %w", noEOF(err))
		}
		counts[i] = n
	}
	nTerms, nData, nSchema, nClasses, nProps := counts[0], counts[1], counts[2], counts[3], counts[4]

	// Pull every framed section into memory; CRCs and inflation happen in
	// parallel below.
	sections := map[byte][]byte{}
	rawLens := map[byte]uint64{}
	for {
		id, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("columnar: section id: %w", noEOF(err))
		}
		if id == secEnd {
			break
		}
		rawLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("columnar: section %d raw length: %w", id, noEOF(err))
		}
		compLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("columnar: section %d length: %w", id, noEOF(err))
		}
		if compLen > maxSectionBytes || rawLen > maxSectionBytes {
			return nil, fmt.Errorf("columnar: section %d implausibly large (%d/%d bytes)", id, compLen, rawLen)
		}
		comp := make([]byte, compLen)
		if _, err := io.ReadFull(br, comp); err != nil {
			return nil, fmt.Errorf("columnar: section %d payload: %w", id, noEOF(err))
		}
		var crc [4]byte
		if _, err := io.ReadFull(br, crc[:]); err != nil {
			return nil, fmt.Errorf("columnar: section %d checksum: %w", id, noEOF(err))
		}
		if got, want := crc32.Checksum(comp, castagnoli), binary.LittleEndian.Uint32(crc[:]); got != want {
			return nil, fmt.Errorf("columnar: section %d checksum mismatch (got %08x want %08x)", id, got, want)
		}
		if _, dup := sections[id]; dup {
			return nil, fmt.Errorf("columnar: duplicate section %d", id)
		}
		sections[id] = comp
		rawLens[id] = rawLen
	}
	for _, id := range []byte{secTerms, secDataS, secDataP, secDataO, secSchema, secClasses, secProperties} {
		if _, ok := sections[id]; !ok {
			return nil, fmt.Errorf("columnar: missing section %d", id)
		}
	}

	snap := &Snapshot{}
	errs := make([]error, 5)
	var (
		sCol, pCol, oCol []dict.ID
		wg               sync.WaitGroup
	)
	decode := func(slot int, fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[slot] = fn()
		}()
	}
	decode(0, func() (err error) {
		snap.Terms, err = inflated(sections[secTerms], rawLens[secTerms], nTerms, decodeTerms)
		return err
	})
	decode(1, func() (err error) {
		sCol, err = inflated(sections[secDataS], rawLens[secDataS], nData, decodeDeltaColumn)
		return err
	})
	decode(2, func() (err error) {
		pCol, err = inflated(sections[secDataP], rawLens[secDataP], nData, decodeColumn)
		return err
	})
	decode(3, func() (err error) {
		oCol, err = inflated(sections[secDataO], rawLens[secDataO], nData, decodeColumn)
		return err
	})
	decode(4, func() error {
		var err error
		if snap.Schema, err = inflated(sections[secSchema], rawLens[secSchema], nSchema, decodeTriples); err != nil {
			return err
		}
		if snap.Classes, err = inflated(sections[secClasses], rawLens[secClasses], nClasses, decodeColumn); err != nil {
			return err
		}
		snap.Properties, err = inflated(sections[secProperties], rawLens[secProperties], nProps, decodeColumn)
		return err
	})
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("columnar: %w", err)
		}
	}
	snap.Data = make([]dict.Triple, nData)
	for i := range snap.Data {
		snap.Data[i] = dict.Triple{S: sCol[i], P: pCol[i], O: oCol[i]}
	}
	return snap, nil
}

// maxSectionBytes bounds one section (1 GiB): a corrupt length varint
// must not drive allocation.
const maxSectionBytes = 1 << 30

// inflate decompresses a section and insists on the exact raw length the
// frame declared — a short flate stream is corruption, not EOF.
func inflate(comp []byte, rawLen uint64) ([]byte, error) {
	zr := flate.NewReader(bytes.NewReader(comp))
	defer zr.Close()
	var buf bytes.Buffer
	buf.Grow(int(rawLen))
	// The +1 lets an over-long stream be detected without unbounded reads.
	n, err := io.Copy(&buf, io.LimitReader(zr, int64(rawLen)+1))
	if err != nil {
		return nil, fmt.Errorf("inflate: %w", err)
	}
	if uint64(n) != rawLen {
		return nil, fmt.Errorf("inflate: got %d bytes, frame declared %d", n, rawLen)
	}
	return buf.Bytes(), nil
}

// inflated decodes one section: it inflates comp and parses the raw bytes
// into n values.
func inflated[T any](comp []byte, rawLen, n uint64, parse func(raw []byte, n uint64) ([]T, error)) ([]T, error) {
	raw, err := inflate(comp, rawLen)
	if err != nil {
		return nil, err
	}
	return parse(raw, n)
}

// The decoders of inflated sections refuse a count their bytes cannot hold
// before allocating for it: a term takes at least two bytes (kind and
// length), an ID one, a triple three.
const (
	minTermBytes   = 2
	minTripleBytes = 3
)

func decodeTerms(raw []byte, n uint64) ([]rdf.Term, error) {
	if n > uint64(len(raw)/minTermBytes) {
		return nil, fmt.Errorf("terms: %d terms in %d bytes", n, len(raw))
	}
	terms := make([]rdf.Term, 0, n)
	var err error
	for i := uint64(0); i < n; i++ {
		if len(raw) == 0 {
			return nil, fmt.Errorf("terms: truncated at term %d of %d", i, n)
		}
		kind := rdf.Kind(raw[0])
		raw = raw[1:]
		var t rdf.Term
		t.Kind = kind
		if t.Value, raw, err = readString(raw); err != nil {
			return nil, fmt.Errorf("terms: term %d value: %w", i, err)
		}
		if kind == rdf.Literal {
			if t.Datatype, raw, err = readString(raw); err != nil {
				return nil, fmt.Errorf("terms: term %d datatype: %w", i, err)
			}
			if t.Lang, raw, err = readString(raw); err != nil {
				return nil, fmt.Errorf("terms: term %d lang: %w", i, err)
			}
		}
		terms = append(terms, t)
	}
	if len(raw) != 0 {
		return nil, fmt.Errorf("terms: %d trailing bytes after %d terms", len(raw), n)
	}
	return terms, nil
}

func readString(b []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return "", nil, fmt.Errorf("truncated string (len %d, %d bytes left)", n, len(b))
	}
	return string(b[sz : sz+int(n)]), b[sz+int(n):], nil
}

func decodeDeltaColumn(raw []byte, n uint64) ([]dict.ID, error) {
	if n > uint64(len(raw)) {
		return nil, fmt.Errorf("delta column: %d rows in %d bytes", n, len(raw))
	}
	col := make([]dict.ID, n)
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		d, sz := binary.Uvarint(raw)
		if sz <= 0 {
			return nil, fmt.Errorf("delta column: truncated at row %d of %d", i, n)
		}
		raw = raw[sz:]
		prev += d
		if prev > uint64(^dict.ID(0)) {
			return nil, fmt.Errorf("delta column: value %d overflows dict.ID at row %d", prev, i)
		}
		col[i] = dict.ID(prev)
	}
	if len(raw) != 0 {
		return nil, fmt.Errorf("delta column: %d trailing bytes", len(raw))
	}
	return col, nil
}

func decodeColumn(raw []byte, n uint64) ([]dict.ID, error) {
	if n > uint64(len(raw)) {
		return nil, fmt.Errorf("column: %d rows in %d bytes", n, len(raw))
	}
	col := make([]dict.ID, n)
	for i := uint64(0); i < n; i++ {
		v, sz := binary.Uvarint(raw)
		if sz <= 0 {
			return nil, fmt.Errorf("column: truncated at row %d of %d", i, n)
		}
		raw = raw[sz:]
		if v > uint64(^dict.ID(0)) {
			return nil, fmt.Errorf("column: value %d overflows dict.ID at row %d", v, i)
		}
		col[i] = dict.ID(v)
	}
	if len(raw) != 0 {
		return nil, fmt.Errorf("column: %d trailing bytes", len(raw))
	}
	return col, nil
}

func decodeTriples(raw []byte, n uint64) ([]dict.Triple, error) {
	if n > uint64(len(raw)/minTripleBytes) {
		return nil, fmt.Errorf("triples: %d triples in %d bytes", n, len(raw))
	}
	ts := make([]dict.Triple, 0, n)
	for i := uint64(0); i < n; i++ {
		var ids [3]uint64
		for j := range ids {
			v, sz := binary.Uvarint(raw)
			if sz <= 0 {
				return nil, fmt.Errorf("triples: truncated at triple %d of %d", i, n)
			}
			if v > uint64(^dict.ID(0)) {
				return nil, fmt.Errorf("triples: id %d overflows dict.ID", v)
			}
			raw = raw[sz:]
			ids[j] = v
		}
		ts = append(ts, dict.Triple{S: dict.ID(ids[0]), P: dict.ID(ids[1]), O: dict.ID(ids[2])})
	}
	if len(raw) != 0 {
		return nil, fmt.Errorf("triples: %d trailing bytes", len(raw))
	}
	return ts, nil
}

// noEOF upgrades io.EOF to io.ErrUnexpectedEOF: inside a framed format a
// clean EOF mid-structure is still a short read, and must not be
// mistaken for a graceful end of stream by callers inspecting the error.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// --- files -------------------------------------------------------------------

// WriteFileAtomic is the crash-durability discipline of every file a data
// directory commits to (snapshots and the manifest that points at them):
// write goes to a uniquely named temp file (.snapshot-*.tmp) in path's
// directory, so concurrent writers never share one; it is fsynced, renamed
// over path, and the directory entry is fsynced. A crash at any point
// leaves either the old file or the new one at path, never a partial one,
// and a failed write leaves no temp file behind.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".snapshot-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so a just-created or just-renamed entry
// survives a crash.
func SyncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer df.Close()
	return df.Sync()
}
