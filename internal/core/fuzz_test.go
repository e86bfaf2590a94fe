package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// FuzzDecodeWireRequest feeds arbitrary bytes to the service's request
// decoder: DecodeWireRequest followed by Normalize must never panic, and
// an accepted request must normalize idempotently and fingerprint the
// same before normalizing, after it and after a JSON round trip of its
// canonical form. One that also converts through Request must run two
// runs without error: the wire carries no cache geometry, so no layout
// or placement it names can reach an unsupported platform.
func FuzzDecodeWireRequest(f *testing.F) {
	for _, s := range []string{
		`{"name":"demo","placement":"rm","workload":"tblook01","runs":80,"seed":7,"analyze":true}`,
		`{"workload":"tblook01","placement":"RM","runs":10,"sed":3}`,
		`{"placement":"rm","runs":40,"seed":9,"security":{"protocol":"prime+probe","replacement":"lru","probe_lines":256,"trials":8}}`,
		`{"placement":"rm","workload":"tblook01","runs":10,"seed":3,"keep_times":false}`,
		`{"placement":"modulo","workload":"tblook01","runs":4,"seed":1,"baseline":true,"layout":{"code":4096,"data":8192,"table":0,"stack":0,"pool":0}}`,
		// Odd, 2^40-aligned and near-2^64 layouts.
		`{"placement":"rm","workload":"tblook01","runs":2,"seed":5,"layout":{"code":4097,"data":12345,"table":77,"stack":3,"pool":1}}`,
		`{"placement":"hrp","workload":"puwmod01","runs":2,"seed":6,"baseline":true,"layout":{"code":1099511627776,"data":2199023255552,"table":3298534883328,"stack":4398046511104,"pool":5497558138880}}`,
		`{"placement":"modulo","workload":"tblook01","runs":2,"seed":7,"layout":{"code":18446744073709486080,"data":18446744073709518848,"table":18446744073709543424,"stack":18446744073709550592,"pool":18446744073709551000}}`,
	} {
		f.Add([]byte(s))
	}
	eng := NewEngine(WithWorkers(1))
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := DecodeWireRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		n, err := w.Normalize()
		if err != nil {
			return
		}
		nn, err := n.Normalize()
		if err != nil || !reflect.DeepEqual(nn, n) {
			t.Fatalf("Normalize not idempotent on %q: %+v, then %+v (%v)", data, n, nn, err)
		}
		fw, err := w.Fingerprint()
		if err != nil {
			t.Fatalf("accepted request %q does not fingerprint: %v", data, err)
		}
		fn, err := n.Fingerprint()
		if err != nil || fn != fw {
			t.Fatalf("fingerprint of %q moved under Normalize: %s, then %s (%v)", data, fw, fn, err)
		}
		canon, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		r, err := DecodeWireRequest(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical form %s of %q does not decode: %v", canon, data, err)
		}
		if fr, err := r.Fingerprint(); err != nil || fr != fw {
			t.Fatalf("fingerprint of %q moved through JSON: %s, then %s (%v)", data, fw, fr, err)
		}
		req, err := n.Request()
		if err != nil {
			return
		}
		// Two runs are below the MBPTA analysis floors, so the check runs
		// the simulation alone.
		req.Runs, req.Analyze = 2, false
		if _, err := eng.Run(context.Background(), req); err != nil {
			t.Fatalf("accepted request %q does not run: %v", data, err)
		}
	})
}

// FuzzDecodeCheckpoint feeds arbitrary bytes to the checkpoint decoder,
// both as they are and as a body with its SHA-256 appended (so inputs
// reach the payload parser behind the checksum). Every input must be
// accepted or rejected with a *CorruptCheckpointError, never panic, and
// an accepted checkpoint must survive an encode and decode round trip.
func FuzzDecodeCheckpoint(f *testing.F) {
	if cp := interruptAt(f, ckptRequests(f)[0], 2, 30); cp != nil {
		blob := cp.Encode()
		f.Add(blob)
		f.Add(blob[:len(blob)-sha256.Size]) // the body alone: re-summed below
	}
	f.Add([]byte(checkpointMagic))
	f.Add([]byte("RMCKPT2"))
	// A security checkpoint: the streaming accumulators plus the rounds.
	if cp := interruptAt(f, ckptRequests(f)[2], 2, 16); cp != nil {
		f.Add(cp.Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sum := sha256.Sum256(data)
		for _, b := range [][]byte{data, append(data[:len(data):len(data)], sum[:]...)} {
			cp, err := DecodeCheckpoint(b)
			if err != nil {
				var corrupt *CorruptCheckpointError
				if !errors.As(err, &corrupt) {
					t.Fatalf("rejected with %T (%v), want *CorruptCheckpointError", err, err)
				}
				continue
			}
			again, err := DecodeCheckpoint(cp.Encode())
			if err != nil {
				t.Fatalf("accepted checkpoint does not round-trip: %v", err)
			}
			if !reflect.DeepEqual(again, cp) {
				t.Fatalf("checkpoint changed through encode and decode:\n%+v\n%+v", cp, again)
			}
		}
	})
}
