package machine

// DrainArena empties every tier of the buffer arena, so that a test can
// read what one run leaves in it. No world may run meanwhile.
func DrainArena() {
	for i := range shardCaches {
		c := &shardCaches[i]
		c.mu.Lock()
		c.freeLists = freeLists{}
		c.mu.Unlock()
	}
	globalArena.mu.Lock()
	globalArena.freeLists = freeLists{}
	globalArena.mu.Unlock()
}

// ArenaBytes sums the capacity, in bytes, of the payload buffers pooled in
// every tier of the arena.
func ArenaBytes() int {
	n := 0
	sum := func(f *freeLists) {
		for _, class := range f.bufs {
			for _, b := range class {
				n += 8 * cap(b)
			}
		}
	}
	for i := range shardCaches {
		c := &shardCaches[i]
		c.mu.Lock()
		sum(&c.freeLists)
		c.mu.Unlock()
	}
	globalArena.mu.Lock()
	sum(&globalArena.freeLists)
	globalArena.mu.Unlock()
	return n
}
