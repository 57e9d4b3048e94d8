package httpfetch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/prefetcher/fetch"
)

// fuzzIDs turns fuzz bytes into a short id list, eight bytes an id.
func fuzzIDs(raw []byte) []fetch.ID {
	ids := make([]fetch.ID, 0, 16)
	for ; len(raw) >= 8 && len(ids) < cap(ids); raw = raw[8:] {
		ids = append(ids, fetch.ID(binary.BigEndian.Uint64(raw)))
	}
	return ids
}

// ReadBatch on arbitrary bytes for an arbitrary id list: never panics,
// never hands back a payload over maxBody, and returns items only for
// a stream that is exactly the framing of those ids in that order —
// which re-encoding the items must reproduce byte for byte. The
// lent-buffer form of the same reader agrees with it: the same verdict,
// the same payloads back to back behind the caller's untouched prefix
// with one length each, and on any error both lent slices back at their
// original lengths.
func FuzzReadBatch(f *testing.F) {
	frame := func(ids ...fetch.ID) []byte {
		var buf bytes.Buffer
		for _, id := range ids {
			WriteBatchItem(&buf, id, testPayload(int64(id)))
		}
		return buf.Bytes()
	}
	idBytes := func(ids ...fetch.ID) []byte {
		var b []byte
		for _, id := range ids {
			b = binary.BigEndian.AppendUint64(b, uint64(id))
		}
		return b
	}
	f.Add(frame(1, 2), idBytes(1, 2))
	f.Add(frame(2, 1), idBytes(1, 2))                             // misordered
	f.Add(frame(1), idBytes(1, 2))                                // short
	f.Add(append(frame(1, 2), 0), idBytes(1, 2))                  // trailing byte
	f.Add(frame(1, 2)[:15], idBytes(1, 2))                        // truncated payload
	f.Add(frame(1, 2), idBytes())                                 // no ids wanted, bytes sent
	f.Add([]byte{}, idBytes())                                    // nothing at all
	f.Add(append(idBytes(7), 0xff, 0xff, 0xff, 0xff), idBytes(7)) // 4 GiB declared
	f.Add(frame(-1, 1<<62), idBytes(-1, 1<<62))
	const maxBody = 64
	f.Fuzz(func(t *testing.T, stream, rawIDs []byte) {
		ids := fuzzIDs(rawIDs)
		items, err := ReadBatch(bytes.NewReader(stream), ids, maxBody)
		dst, lens := append(make([]byte, 0, 32), "head"...), append(make([]int, 0, 4), 7)
		out, ls, ierr := readBatch(bytes.NewReader(stream), ids, maxBody, nil, dst, lens)
		if (err == nil) != (ierr == nil) {
			t.Fatalf("ReadBatch says %v, its lent-buffer form %v", err, ierr)
		}
		if string(out[:4]) != "head" || string(dst[:4]) != "head" || ls[0] != 7 {
			t.Fatalf("the lent prefix was modified: %q, %v", out[:4], ls[0])
		}
		if err != nil {
			if items != nil {
				t.Fatalf("items returned beside error %v", err)
			}
			if len(out) != 4 || len(ls) != 1 {
				t.Fatalf("after %v the lent slices came back %d and %d long, want 4 and 1", ierr, len(out), len(ls))
			}
			return
		}
		if len(ls) != 1+len(ids) {
			t.Fatalf("%d lengths for %d ids", len(ls)-1, len(ids))
		}
		for i, it := range items {
			n := ls[1+i]
			if n > maxBody || n > len(out)-4 || !bytes.Equal(out[4:4+n], it.Data.([]byte)) {
				t.Fatalf("record %d: %d lent bytes are not the item's %d", i, n, len(it.Data.([]byte)))
			}
			out = append(out[:4], out[4+n:]...)
		}
		if len(out) != 4 {
			t.Fatalf("%d bytes appended beyond what lens accounts for", len(out)-4)
		}
		if len(items) != len(ids) {
			t.Fatalf("%d items for %d ids", len(items), len(ids))
		}
		var again bytes.Buffer
		for i, it := range items {
			data := it.Data.([]byte)
			if it.ID != ids[i] || len(data) > maxBody || it.Size != float64(len(data)) {
				t.Fatalf("item %d = id %d, %d bytes, size %v; want id %d within %d bytes", i, it.ID, len(data), it.Size, ids[i], maxBody)
			}
			if err := WriteBatchItem(&again, it.ID, data); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(again.Bytes(), stream) {
			t.Fatalf("accepted a stream that is not the framing of its items:\n%x\n%x", stream, again.Bytes())
		}
	})
}

// ParseIDs accepts exactly what the client formats — decimal int64s
// joined by single commas, as strconv.ParseInt reads them — and what it
// accepts formats back to the same ids.
func FuzzParseIDs(f *testing.F) {
	for _, s := range []string{"1,22,333", "-1,+2,0", "9223372036854775807,-9223372036854775808", "", ",", "1,", ",1", "1,,2", "x", "1,2x", "9223372036854775808", "1 ,2", "0x10", "1_000", "١٢"} {
		f.Add(s)
	}
	// An origin that answers every request 404: the StatusError's URL
	// then carries the request target the client put on the wire.
	c, err := New(Config{BaseURL: "http://origin.invalid", BatchPath: "/batch"})
	if err != nil {
		f.Fatal(err)
	}
	c.dial = func(context.Context, string, string) (net.Conn, error) {
		near, far := net.Pipe()
		go func() {
			defer far.Close()
			for br := bufio.NewReader(far); ; {
				if l, err := br.ReadString('\n'); err != nil {
					return
				} else if l == "\r\n" {
					io.WriteString(far, "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n")
				}
			}
		}()
		return near, nil
	}
	f.Cleanup(func() { c.Close() })
	f.Fuzz(func(t *testing.T, s string) {
		ids, err := ParseIDs(s)
		parts := strings.Split(s, ",") // the reference: the implementation this replaced
		valid := true
		for _, p := range parts {
			if _, perr := strconv.ParseInt(p, 10, 64); perr != nil {
				valid = false
			}
		}
		if valid != (err == nil) {
			t.Fatalf("ParseIDs(%q) err = %v, reference says valid = %v", s, err, valid)
		}
		if err != nil {
			if ids != nil {
				t.Fatalf("ParseIDs(%q) returned ids beside an error", s)
			}
			return
		}
		if len(ids) != len(parts) || cap(ids) != len(parts) {
			t.Fatalf("ParseIDs(%q): len %d cap %d, want %d exactly", s, len(ids), cap(ids), len(parts))
		}
		// What the client puts on the request line for these ids parses
		// back to them.
		var se *StatusError
		if _, err := c.FetchBatch(context.Background(), ids); !errors.As(err, &se) {
			t.Fatalf("FetchBatch: %v, want the scripted 404", err)
		}
		_, list, _ := strings.Cut(se.URL, "?ids=")
		back, err := ParseIDs(list)
		if err != nil || len(back) != len(ids) {
			t.Fatalf("formatted list %q: %v, %v", list, back, err)
		}
		for i := range ids {
			if back[i] != ids[i] {
				t.Fatalf("id %d: %d formatted and parsed back as %d", i, ids[i], back[i])
			}
		}
	})
}

// Arbitrary bytes as the origin's reply, over net.Pipe: Fetch and
// FetchBatch, and FetchInto and FetchBatchInto after them, return —
// never hang past their context — and never hand back more than
// MaxBodyBytes per payload; the lent-buffer forms reach the verdict the
// owned ones did, append exactly the owned payloads behind an untouched
// prefix, and on an error return what they were lent at its length.
func FuzzWireReply(f *testing.F) {
	for _, s := range []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X\r\n\r\n5\r\nhello\r\n0\r\nX: y\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort",
		"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
		"HTTP/1.1 200 OK\r\n\r\nuntil close",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5;" + strings.Repeat("e", 5000) + "\r\nhello\r\n0\r\n\r\n",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 404 Not Found\r\nContent-Length: 4\r\n\r\ngone",
		"HTTP/1.1 301 Moved\r\nLocation: http://elsewhere/\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 24\r\n\r\n\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x01a\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x01", // a batch reply cut short
		"HTTP/1.1 200 OK\r\nX: " + strings.Repeat("h", 70000) + "\r\n\r\n",
		"HTTP/0.9 200\r\n\r\n", "HTTP/1.1 99999 X\r\n\r\n", "\r\n\r\n", "", "\x16\x03\x01\x02\x00",
	} {
		f.Add([]byte(s), false)
		f.Add([]byte(s), true)
	}
	const maxBody = 1 << 10
	f.Fuzz(func(t *testing.T, reply []byte, batch bool) {
		var owned []byte // the owned forms' payloads back to back, nil if they failed
		for _, into := range []bool{false, true} {
			c, err := New(Config{BaseURL: "http://origin.invalid", BatchPath: "/batch", MaxBodyBytes: maxBody})
			if err != nil {
				t.Fatal(err)
			}
			originDone := make(chan struct{})
			c.dial = func(context.Context, string, string) (net.Conn, error) {
				near, far := net.Pipe()
				go func() { // the origin: swallow the request, say the fuzzed bytes, hang up
					defer close(originDone)
					defer far.Close()
					go io.Copy(io.Discard, far) // ends when either end closes
					far.Write(reply)            // returns early if the client hangs up first
				}()
				return near, nil
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			returned := make(chan struct{})
			go func() {
				defer close(returned)
				if !into {
					var items []fetch.Item
					if batch {
						items, _ = c.FetchBatch(ctx, []fetch.ID{1, 2})
					} else if item, err := c.Fetch(ctx, 1); err == nil {
						items = []fetch.Item{item}
					}
					for _, it := range items {
						if n := len(it.Data.([]byte)); n > maxBody {
							t.Errorf("payload of %d bytes past the %d bound", n, maxBody)
						}
						owned = append(owned, it.Data.([]byte)...)
					}
					if items != nil && owned == nil {
						owned = []byte{}
					}
					return
				}
				dst, lens := append(make([]byte, 0, 16), "head"...), append(make([]int, 0, 4), 7)
				out, ls, err := dst, lens, error(nil)
				if batch {
					out, ls, err = c.FetchBatchInto(ctx, []fetch.ID{1, 2}, dst, lens)
				} else if out, err = c.FetchInto(ctx, 1, dst); err == nil {
					ls = append(ls, len(out)-4)
				}
				if string(out[:4]) != "head" || string(dst[:4]) != "head" || ls[0] != 7 {
					t.Errorf("the lent prefix was modified: %q, %v", out[:4], ls[0])
				}
				if (err == nil) != (owned != nil) {
					t.Errorf("the lent-buffer fetch returned %v where the owned one's payloads were %v", err, owned != nil)
				}
				if err != nil {
					if len(out) != 4 || len(ls) != 1 {
						t.Errorf("after %v the lent slices came back %d and %d long, want 4 and 1", err, len(out), len(ls))
					}
					return
				}
				sum := 0
				for _, n := range ls[1:] {
					if sum += n; n > maxBody {
						t.Errorf("%d bytes appended for one payload, past the %d bound", n, maxBody)
					}
				}
				if sum != len(out)-4 || !bytes.Equal(out[4:], owned) {
					t.Errorf("lens %v for %d appended bytes, which are the owned payloads: %v", ls[1:], len(out)-4, bytes.Equal(out[4:], owned))
				}
			}()
			select {
			case <-returned:
			case <-time.After(10 * time.Second):
				t.Fatal("fetch hung past its context")
			}
			c.Close() // hangs up a pooled connection, which lets a blocked origin Write return
			<-originDone
		}
	})
}
