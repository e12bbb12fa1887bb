package cache

import (
	"fmt"
	"testing"
)

// BenchmarkCacheMissEvict measures the write path at capacity: one op is
// a GetOrAdd miss on a full single shard, which inserts one entry and
// evicts one, at three shard sizes — flat ns/op across them is the
// point. The restore case is one op per warm restore: Add of every
// entry of an empty shard, as snapshot boot and epoch-swap carry do.
func BenchmarkCacheMissEvict(b *testing.B) {
	for _, n := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			// A ring of 2n keys, inserted in order: with no hits the
			// resident set is the last n inserted, so the next key in
			// the ring is always absent and every op misses and evicts.
			keys := ringKeys(2 * n)
			c := New[*int](n, 1)
			for _, k := range keys[:n] {
				c.GetOrAdd(k, func() *int { return new(int) })
			}
			v := new(int)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, hit := c.GetOrAdd(keys[(n+i)%len(keys)], func() *int { return v }); hit {
					b.Fatal("ring key unexpectedly resident")
				}
			}
		})
	}
	const restore = 16384
	b.Run(fmt.Sprintf("restore=%d", restore), func(b *testing.B) {
		keys := ringKeys(restore)
		v := new(int)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := New[*int](restore, 1)
			for _, k := range keys {
				c.Add(k, v, 1000)
			}
		}
	})
}

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("#%d,%d", i, 7*i+1)
	}
	return keys
}
