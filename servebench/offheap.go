package main

import (
	"syscall"
	"unsafe"
)

// offHeap returns a zero-length slice with room for n values in anonymous
// memory outside the Go heap. The benchmark keeps its raw samples there so
// that heap_peak_mb measures the server, not the benchmark's own
// bookkeeping. Pages are committed only as they are written. T must hold
// no pointers.
func offHeap[T any](n int) []T {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]T, 0, n/64) // fall back to the heap; only heap_peak_mb is affected
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)[:0]
}
