package protocol

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
)

// benchEcho dials a loopback echo server and returns the client side.
func benchEcho(b *testing.B) *Conn {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	ready := make(chan struct{})
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		c := NewConn(nc)
		close(ready)
		for {
			m, payload, err := c.Recv()
			if err != nil {
				return
			}
			if m.Payload {
				io.Copy(io.Discard, payload)
				if err := c.Send(&Message{Type: TypeCacheUpdate, Status: StatusOK}); err != nil {
					return
				}
				continue
			}
			if err := c.Send(m); err != nil {
				return
			}
		}
	}()
	client, err := Dial(ln.Addr().String(), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { client.Close() })
	<-ready
	return client
}

// BenchmarkControlMessageRoundTrip measures manager↔worker control message
// latency over a real loopback socket — the cost floor of the "millisecond
// per task" dispatch budget discussed in §6.
func BenchmarkControlMessageRoundTrip(b *testing.B) {
	client := benchEcho(b)
	msg := &Message{Type: TypeHeartbeat, WorkerID: "bench"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Send(msg); err != nil {
			b.Fatal(err)
		}
		if _, _, err := client.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

// countingConn counts the Write calls that reach the socket.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// BenchmarkConnBurst measures the queued write path under concurrent
// senders: K goroutines send completion-sized control frames over one
// loopback connection while a reader drains them. It reports frames/s,
// counted until the last frame is read, and socket writes per frame. One
// write per frame means no batching; bursts from concurrent senders should
// share a write.
func BenchmarkConnBurst(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("senders=%d", k), func(b *testing.B) {
			a, r := loopback(b)
			sock := &countingConn{Conn: a}
			client, server := NewConn(sock), NewConn(r)
			defer client.Close()
			defer server.Close()
			drained := make(chan error, 1)
			go func() {
				for i := 0; i < b.N; i++ {
					if _, _, err := server.Recv(); err != nil {
						drained <- err
						return
					}
				}
				drained <- nil
			}()
			msg := &Message{Type: TypeComplete, WorkerID: "worker-0042", TaskID: 123456, Status: StatusOK, Result: []byte("abab")}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < k; g++ {
				n := b.N / k
				if g < b.N%k {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if err := client.Send(msg); err != nil {
							b.Error(err)
							return
						}
					}
				}(n)
			}
			wg.Wait()
			if err := <-drained; err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
			b.ReportMetric(float64(sock.writes.Load())/float64(b.N), "writes/frame")
		})
	}
}

// BenchmarkPayloadThroughput measures bulk object movement over loopback.
func BenchmarkPayloadThroughput(b *testing.B) {
	const size = 4 << 20
	data := bytes.Repeat([]byte{0xAB}, size)
	client := benchEcho(b)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &Message{Type: TypePut, CacheName: "bench", Size: size}
		if err := client.SendPayload(m, bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
		if _, _, err := client.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBinaryEncode measures pure codec cost for a representative
// control message, without socket I/O.
func BenchmarkBinaryEncode(b *testing.B) {
	m := &Message{
		Type: TypeCacheUpdate, WorkerID: "worker-0042", CacheName: "file-abcdef",
		Size: 123456789, TransferID: "t-0099", Status: StatusOK,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := encodeMessage(nil, m)
		if len(buf) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

// BenchmarkBinaryDecode measures pure decode cost for the same message.
func BenchmarkBinaryDecode(b *testing.B) {
	m := &Message{
		Type: TypeCacheUpdate, WorkerID: "worker-0042", CacheName: "file-abcdef",
		Size: 123456789, TransferID: "t-0099", Status: StatusOK,
	}
	buf := encodeMessage(nil, m)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodeMessage(buf); err != nil {
			b.Fatal(err)
		}
	}
}
