//go:build unix && !race

package offheap

import "syscall"

func alloc(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("offheap: mmap: " + err.Error())
	}
	return b
}

func free(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic("offheap: munmap: " + err.Error())
	}
}
