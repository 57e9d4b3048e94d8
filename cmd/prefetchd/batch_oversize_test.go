//go:build linux && (amd64 || arm64)

package main

import (
	"fmt"
	"net/http"
	"strings"
	"syscall"
	"testing"

	"repro/prefetcher"
)

// A record longer than the batch wire's uint32 length can say is found
// while the reply is assembled, before any of it is sent: the client
// gets a 502, where the handler that framed onto the socket had already
// promised a 200 with a Content-Length and cut it short. The record is
// 4 GiB of reserved, inaccessible address space — touching a byte of it
// would fault — so the check also has to come before the copy.
func TestBatchOversizedRecordIs502(t *testing.T) {
	const size = 1<<32 + 1
	huge, err := syscall.Mmap(-1, 0, size, syscall.PROT_NONE, syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		t.Skipf("cannot reserve %d bytes of address space: %v", size, err)
	}
	defer syscall.Munmap(huge)

	rb := bufPool.Get().(*replyBuf)
	defer putBuf(rb)
	err = frameBatch(rb, []prefetcher.ID{1, 2}, huge, []prefetcher.ByteRange{{Off: 0, Len: 0}, {Off: 0, Len: 1 << 32}})
	if err == nil {
		t.Fatal("frameBatch framed a record of 4 GiB")
	}
	var logged string
	s := &Server{logf: func(format string, args ...any) { logged = fmt.Sprintf(format, args...) }}
	status, n := s.failFetch(rb, "GET /batch?ids=1,2", err)
	if want := http.StatusText(http.StatusBadGateway) + "\n"; status != http.StatusBadGateway || string(rb.b[headRoom:]) != want || n != len(want) {
		t.Fatalf("status %d, body %q (Content-Length %d); want a 502 and its text alone", status, rb.b[headRoom:], n)
	}
	if !strings.Contains(logged, "GET /batch?ids=1,2: ") || !strings.Contains(logged, err.Error()) {
		t.Fatalf("log line %q does not carry the request and the framing error", logged)
	}
}
