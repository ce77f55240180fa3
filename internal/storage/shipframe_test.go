package storage

// Malformed ship frames, in the style of a table of truncated, oversized
// and unknown-type buffers that must all error: each row must fail to
// decode, and must neither panic nor wedge a server or a client that
// receives it.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

type malformedFrame struct {
	name string
	data []byte
	// complete marks a row the receiver can reject from the bytes alone;
	// the rest are cut short, and are rejected once the peer hangs up.
	complete bool
}

func malformedFrames() []malformedFrame {
	notify := frameRecord(frameNotify, binary.AppendUvarint(nil, 9))
	oversized := frameRecord(frameRec, []byte{1, 2, 3})
	binary.LittleEndian.PutUint32(oversized[0:4], maxRecord+1)
	badCRC := append([]byte(nil), notify...)
	badCRC[len(badCRC)-1] ^= 0x01
	overflow := bytes.Repeat([]byte{0xff}, 10)
	return []malformedFrame{
		{"truncated header", notify[:recordHeaderLen-3], false},
		{"truncated payload", notify[:len(notify)-1], false},
		{"length over maxRecord", oversized, true},
		{"CRC mismatch", badCRC, true},
		{"overflowing uvarint in an error frame", frameRecord(frameErr, append(overflow, 0x01)), true},
		{"error frame without a code", frameRecord(frameErr, nil), true},
		{"unknown error code", frameRecord(frameErr, append(binary.AppendUvarint(nil, 99), "boom"...)), true},
		{"notify missing a field", frameRecord(frameNotify, nil), true},
		{"unknown frame kind", frameRecord(99, nil), true},
	}
}

func TestShipFrameMalformed(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	srv, err := NewShipServer(w)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, row := range malformedFrames() {
		t.Run(row.name, func(t *testing.T) {
			// Decode: the frame, or the error it carries, is an error
			// that maps to no sentinel.
			fr, err := readWireFrame(bytes.NewReader(row.data))
			if err == nil && fr.kind == frameErr {
				err = decodeErrFrame(fr)
				for _, sentinel := range []error{ErrNoVersion, ErrCorruptWAL, ErrSourceClosed} {
					if errors.Is(err, sentinel) {
						t.Fatalf("decoded to sentinel %v", sentinel)
					}
				}
			}
			if err == nil {
				t.Fatal("frame decoded")
			}
			serverDrops(t, srv, row)
			clientFails(t, row)
		})
	}
}

// serverDrops sends row to a server after a good handshake: the server
// must drop the connection by itself when the row is complete, and once
// the client hangs up otherwise.
func serverDrops(t *testing.T, srv *ShipServer, row malformedFrame) {
	t.Helper()
	client, server := net.Pipe()
	defer client.Close()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(server)
		close(done)
	}()
	client.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Write(frameRecord(frameHello, binary.AppendUvarint(nil, wireProto))); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(client)
	if fr, err := readWireFrame(br); err != nil || fr.kind != frameHelloOK {
		t.Fatalf("handshake: frame %d, %v", fr.kind, err)
	}
	go io.Copy(io.Discard, br) // durability pushes
	client.Write(row.data)     // fails once the server has dropped
	if !row.complete {
		client.Close()
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server still serving the connection")
	}
}

// clientFails answers a client's hello with row and hangs up: opening
// the remote source must fail, not hang.
func clientFails(t *testing.T, row malformedFrame) {
	t.Helper()
	dial := func() (net.Conn, error) {
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			if _, err := readWireFrame(server); err == nil {
				server.Write(row.data)
			}
		}()
		return client, nil
	}
	res := make(chan error, 1)
	go func() {
		src, err := OpenRemoteTail(dial, RemoteOptions{DialAttempts: 1})
		if err == nil {
			src.Close()
		}
		res <- err
	}()
	select {
	case err := <-res:
		if err == nil {
			t.Fatal("remote source opened on a malformed handshake reply")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client wedged on a malformed handshake reply")
	}
}

// TestShipHelloRefusesV1: a peer speaking protocol 1, which still
// carried the re-base counter, is refused at hello with an error frame,
// and the server drops the connection.
func TestShipHelloRefusesV1(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	srv, err := NewShipServer(w)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, server := net.Pipe()
	defer client.Close()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(server)
		close(done)
	}()
	client.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Write(frameRecord(frameHello, binary.AppendUvarint(nil, 1))); err != nil {
		t.Fatal(err)
	}
	fr, err := readWireFrame(client)
	if err != nil || fr.kind != frameErr {
		t.Fatalf("v1 hello answered with frame %d, %v; want an error frame", fr.kind, err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server still serving a v1 peer")
	}
}
