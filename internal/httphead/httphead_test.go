package httphead

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
	"testing/iotest"
)

func TestOnly(t *testing.T) {
	for _, c := range []struct {
		b    string
		set  string
		want bool
	}{
		{"", AlnumBytes, true},
		{"Content-Length", AlnumBytes, false},
		{"Content-Length", tokenBytes, true},
		{"abc123", AlnumBytes, true},
		{"a b", tokenBytes, false},
		{"x:y", tokenBytes, false},
	} {
		if got := Only([]byte(c.b), c.set); got != c.want {
			t.Errorf("Only(%q) = %v, want %v", c.b, got, c.want)
		}
	}
}

func TestPrintable(t *testing.T) {
	for _, c := range []struct {
		b    string
		want bool
	}{
		{"", true},
		{" text/html; charset=utf-8", true},
		{"a\tb", false},
		{"a\rb", false},
		{"a\nb", false},
		{"a\x7fb", false},
		{"\x00", false},
		{"caf\xc3\xa9", true}, // bytes above 0x7f are not controls
	} {
		if got := Printable([]byte(c.b)); got != c.want {
			t.Errorf("Printable(%q) = %v, want %v", c.b, got, c.want)
		}
	}
}

func TestLine(t *testing.T) {
	for _, c := range []struct {
		b    string
		text string
		n    int
		crlf bool
	}{
		{"", "", 0, false},
		{"GET / HTTP/1.1", "", 0, false}, // no LF buffered yet
		{"GET / HTTP/1.1\r\nHost: a\r\n", "GET / HTTP/1.1", 16, true},
		{"\r\n", "", 2, true},
		{"GET / HTTP/1.1\nHost: a\r\n", "", 15, false}, // bare LF
		{"\n", "", 1, false},
		{"a\r\r\n", "a\r", 4, true},
	} {
		text, n, crlf := Line([]byte(c.b))
		if string(text) != c.text || n != c.n || crlf != c.crlf {
			t.Errorf("Line(%q) = %q, %d, %v; want %q, %d, %v",
				c.b, text, n, crlf, c.text, c.n, c.crlf)
		}
	}
}

func TestField(t *testing.T) {
	for _, c := range []struct {
		line        string
		name, value string
		ok          bool
	}{
		{"Host: example.com", "Host", "example.com", true},
		{"Content-Length:42  ", "Content-Length", "42", true},
		{"X-Empty:", "X-Empty", "", true},
		{"Location: http://a:8080/x", "Location", "http://a:8080/x", true},
		{" Host: example.com", "", "", false}, // obs-fold: no token name
		{"Host example.com", "", "", false},
		{": value", "", "", false},
		{"Ho st: x", "", "", false},
		{"Host : x", "", "", false},
		{"Host: a\tb", "", "", false},
		{"Host: a\x7f", "", "", false},
	} {
		name, value, ok := Field([]byte(c.line))
		if string(name) != c.name || string(value) != c.value || ok != c.ok {
			t.Errorf("Field(%q) = %q, %q, %v; want %q, %q, %v",
				c.line, name, value, ok, c.name, c.value, c.ok)
		}
	}
}

// chunkedBodies are chunked bodies, each followed by the bytes of a
// pipelined next message that neither decoder may consume.
var chunkedBodies = []string{
	"0\r\n\r\n",
	"5\r\nhello\r\n0\r\n\r\n",
	"3;name=value\r\nabc\r\nA\r\n0123456789\r\n0\r\n\r\n",
	"B\r\nhello world\r\n0\r\n\r\n",
	"4 \t\r\nbody\r\n0\r\n\r\n",
	"4\nbody\r\n0\r\n\r\n",
	"4\r\nbody\r\n0\r\nX-Sum: 1\r\nX-Other: two\r\n\r\n",
	"4\r\nbody\r\n0;last\r\n\r\n",
	// Malformed: each must fail in both decoders.
	"5\r\nhel",
	"5\r\nhelloXX0\r\n\r\n",
	"g\r\nabc\r\n0\r\n\r\n",
	"\r\nabc\r\n0\r\n\r\n",
	"11111111111111111\r\nx\r\n0\r\n\r\n",
	"5\r\nhello\r\n0\r\n",
	"5\r\nhello\r\n0\r\nBad Header\r\n\r\n",
	"5\r\nhello\r\n",
}

const pipelined = "GET /next HTTP/1.1\r\n\r\n"

// decodeNetHTTP decodes body behind a chunked response head with
// net/http, returning the body, whether it failed, and the bytes left
// in the connection's buffer.
func decodeNetHTTP(t *testing.T, body string, wrap func(io.Reader) io.Reader) (string, bool, string) {
	t.Helper()
	head := "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
	br := bufio.NewReader(wrap(strings.NewReader(head + body + pipelined)))
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("ReadResponse(%q): %v", body, err)
	}
	got, err := io.ReadAll(resp.Body)
	rest, _ := io.ReadAll(br)
	return string(got), err != nil, string(rest)
}

func decodeChunked(body string, wrap func(io.Reader) io.Reader) (string, bool, string) {
	br := bufio.NewReader(wrap(strings.NewReader(body + pipelined)))
	var cr Chunked
	cr.Reset(br)
	got, err := io.ReadAll(&cr)
	rest, _ := io.ReadAll(br)
	return string(got), err != nil, string(rest)
}

// TestChunkedMatchesNetHTTP holds Chunked to net/http's reading of the
// same response: the same body bytes, a failure on the same inputs and,
// on success, the same bytes left for the next message, whether the
// connection delivers everything at once or a byte at a time.
func TestChunkedMatchesNetHTTP(t *testing.T) {
	identity := func(r io.Reader) io.Reader { return r }
	for _, wrap := range []func(io.Reader) io.Reader{identity, iotest.OneByteReader} {
		for _, body := range chunkedBodies {
			wantBody, wantFail, wantRest := decodeNetHTTP(t, body, wrap)
			gotBody, gotFail, gotRest := decodeChunked(body, wrap)
			if gotFail != wantFail {
				t.Errorf("%q: failed = %v, net/http failed = %v", body, gotFail, wantFail)
				continue
			}
			if wantFail {
				continue
			}
			if gotBody != wantBody {
				t.Errorf("%q: body %q, net/http %q", body, gotBody, wantBody)
			}
			if gotRest != wantRest || gotRest != pipelined {
				t.Errorf("%q: left %q, net/http left %q", body, gotRest, wantRest)
			}
		}
	}
}

// TestChunkedReturnsEarly checks that a read returns the data already
// buffered instead of waiting on the connection for the rest of the
// body: for a chunk's closing CRLF, or for the next chunk line.
func TestChunkedReturnsEarly(t *testing.T) {
	for _, writes := range [][]string{
		{"5\r\nhello", "\r\n0\r\n\r\n"},
		{"5\r\nhello\r\n", "0\r\n\r\n"},
	} {
		pr, pw := io.Pipe()
		go func() {
			// The reader must return "hello" before the second write is taken.
			for _, w := range writes {
				pw.Write([]byte(w))
			}
			pw.Close()
		}()
		var cr Chunked
		cr.Reset(bufio.NewReader(pr))
		buf := make([]byte, 64)
		n, err := cr.Read(buf)
		if err != nil || string(buf[:n]) != "hello" {
			t.Fatalf("%q: first Read = %q, %v; want \"hello\", nil", writes, buf[:n], err)
		}
		if n, err = cr.Read(buf); n != 0 || err != io.EOF {
			t.Fatalf("%q: second Read = %d, %v; want 0, EOF", writes, n, err)
		}
	}
}

// TestChunkedErrorIsSticky checks that a failed body keeps failing, and
// that Reset onto the next body clears it.
func TestChunkedErrorIsSticky(t *testing.T) {
	var cr Chunked
	cr.Reset(bufio.NewReader(strings.NewReader("z\r\n")))
	buf := make([]byte, 8)
	_, err1 := cr.Read(buf)
	_, err2 := cr.Read(buf)
	if err1 == nil || err1 == io.EOF || err2 != err1 {
		t.Fatalf("reads after a bad chunk line = %v, %v; want one sticky error", err1, err2)
	}
	cr.Reset(bufio.NewReader(strings.NewReader("2\r\nok\r\n0\r\n\r\n")))
	got, err := io.ReadAll(&cr)
	if err != nil || string(got) != "ok" {
		t.Fatalf("after Reset: %q, %v; want \"ok\", nil", got, err)
	}
}

// TestChunkedNonDataBound checks the overhead bound net/http keeps: a
// body of many tiny chunks behind long extensions fails, while the same
// chunks with short lines decode.
func TestChunkedNonDataBound(t *testing.T) {
	ext := ";" + strings.Repeat("e", 200)
	var long, short strings.Builder
	for i := 0; i < 200; i++ {
		long.WriteString("1" + ext + "\r\nx\r\n")
		short.WriteString("1\r\nx\r\n")
	}
	long.WriteString("0\r\n\r\n")
	short.WriteString("0\r\n\r\n")
	if _, fail, _ := decodeChunked(long.String(), func(r io.Reader) io.Reader { return r }); !fail {
		t.Error("chunks carrying 200 bytes of extension each decoded")
	}
	body, fail, _ := decodeChunked(short.String(), func(r io.Reader) io.Reader { return r })
	if fail || body != strings.Repeat("x", 200) {
		t.Errorf("200 one-byte chunks: %d bytes, failed %v", len(body), fail)
	}
}

// TestChunkedReadAllocFree checks that decoding a body without a
// trailer section allocates nothing.
func TestChunkedReadAllocFree(t *testing.T) {
	data := []byte("5\r\nhello\r\n3;x=y\r\nabc\r\n0\r\n\r\n")
	rd := bytes.NewReader(data)
	br := bufio.NewReader(rd)
	var cr Chunked
	buf := make([]byte, 4)
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(data)
		br.Reset(rd)
		cr.Reset(br)
		for {
			if _, err := cr.Read(buf); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				return
			}
		}
	})
	if allocs != 0 {
		t.Errorf("chunked decode allocates %v a body, want 0", allocs)
	}
}
