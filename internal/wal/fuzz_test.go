package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
)

// FuzzRecordDecode drives arbitrary bytes through the frame decoder. The
// invariants: never panic, never allocate per a hostile length prefix, and
// every record that does decode must re-encode to a frame that decodes to
// the same record (no lossy acceptance).
func FuzzRecordDecode(f *testing.F) {
	var seed []byte
	recs := testRecords()
	for i := range recs {
		seed = AppendEncode(nil, &recs[i])
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		res := DecodeAll(data)
		if res.Clean && res.Err != nil {
			t.Fatal("clean scan carries an error")
		}
		if !res.Clean && (res.Torn < 0 || res.Torn > len(data)) {
			t.Fatalf("torn offset %d outside buffer", res.Torn)
		}
		for i := range res.Records {
			reenc := AppendEncode(nil, &res.Records[i])
			back := DecodeAll(reenc)
			if !back.Clean || len(back.Records) != 1 || !reflect.DeepEqual(back.Records[0], res.Records[i]) {
				t.Fatalf("decoded record %d does not survive re-encode: %+v", i, res.Records[i])
			}
		}
	})
}

// sameCheckpoint reports whether a and b hold the same graph state: ID,
// Seq, pseudo root, vertex slots and liveness, adjacency, and tree parents.
func sameCheckpoint(a, b *Checkpoint) bool {
	if a.ID != b.ID || a.Seq != b.Seq || a.Pseudo != b.Pseudo ||
		a.Graph.NumVertexSlots() != b.Graph.NumVertexSlots() || a.Graph.NumEdges() != b.Graph.NumEdges() ||
		!reflect.DeepEqual(a.Tree.Parent, b.Tree.Parent) {
		return false
	}
	for v := 0; v < a.Graph.NumVertexSlots(); v++ {
		if a.Graph.IsVertex(v) != b.Graph.IsVertex(v) ||
			!reflect.DeepEqual(a.Graph.Neighbors(v, nil), b.Graph.Neighbors(v, nil)) {
			return false
		}
	}
	return true
}

// FuzzCheckpointDecode drives arbitrary bytes through the checkpoint
// decoder. The invariants: never panic, fail only with ErrCorrupt, and every
// accepted blob re-encodes to bytes that decode to the same checkpoint.
//
// Random bytes almost never carry a valid CRC, so each input is also
// decoded as a payload wrapped in a valid header: that half reaches the
// structural checks behind the framing.
func FuzzCheckpointDecode(f *testing.F) {
	enc := buildCheckpoint(f).Encode()
	f.Add(enc)
	f.Add(enc[16:])
	f.Add([]byte{0, 0, 0, 0x80, 0x80, 0x80, 0x02, 0}) // pseudo=2^22, nothing behind it
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, ckptFrame(data)} {
			c, err := DecodeCheckpoint(in)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
				}
				continue
			}
			back, err := DecodeCheckpoint(c.Encode())
			if err != nil {
				t.Fatalf("accepted checkpoint does not survive re-encode: %v", err)
			}
			if !sameCheckpoint(c, back) {
				t.Fatalf("re-encoded checkpoint decodes to different state: %+v vs %+v", c, back)
			}
		}
	})
}

// FuzzRoutesDecode drives arbitrary bytes through the route-frame decoder.
// The invariants: never panic, fail only with ErrCorrupt, consume a length
// inside the buffer, and every accepted frame re-encodes byte-identically.
// As in FuzzCheckpointDecode, each input is also decoded as a payload under
// a valid header.
func FuzzRoutesDecode(f *testing.F) {
	for _, r := range []RouteRecord{
		{Graph: "a", Shard: 2, Seq: 10},
		{Graph: "", Shard: -1},
		{Graph: "other/graph\x00!", Shard: 1 << 20, Seq: 1 << 40},
	} {
		enc := appendRouteFrame(nil, &r)
		f.Add(enc)
		f.Add(enc[8:])
	}
	// Graph "a", shard 2, Seq 10 as a two-byte (non-minimal) varint.
	f.Add(routeFrame([]byte{recRoute, 1, 'a', 4, 0x8a, 0x00}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, routeFrame(data)} {
			r, n, err := decodeRouteFrame(in)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
				}
				continue
			}
			if n < 8 || n > len(in) {
				t.Fatalf("consumed %d bytes of %d", n, len(in))
			}
			if reenc := appendRouteFrame(nil, &r); !bytes.Equal(reenc, in[:n]) {
				t.Fatalf("accepted frame %x re-encodes to %x", in[:n], reenc)
			}
		}
	})
}

// routeFrame wraps payload in a valid route-frame header: length and CRC.
func routeFrame(payload []byte) []byte {
	out := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(out, uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}
