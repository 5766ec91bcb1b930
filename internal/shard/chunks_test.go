package shard_test

import (
	"fmt"
	"testing"
	_ "unsafe" // go:linkname
)

// chunkShift is package exec's unexported chunk size, log2 of a relation
// chunk's rows, reached so that the executor's differential runs on
// relations cut into chunks of a row or a few, as exec's own tests do.
//
//go:linkname chunkShift repro/internal/exec.chunkShift
var chunkShift uint8

// atChunkSizes runs f with relations cut into chunks of one row, of four
// rows and of the default size.
func atChunkSizes(t *testing.T, f func(t *testing.T)) {
	for _, shift := range []uint8{0, 2, chunkShift} {
		t.Run(fmt.Sprintf("chunk=%d", 1<<shift), func(t *testing.T) {
			defer func(s uint8) { chunkShift = s }(chunkShift)
			chunkShift = shift
			f(t)
		})
	}
}
