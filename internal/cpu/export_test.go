package cpu

// FlushPredecode empties the whole predecode table, so the next fetch
// takes the checked FetchWord → Decode path. The differential test's
// reference stepper calls it before every step, which makes that CPU
// decode every instruction fresh.
func (c *CPU) FlushPredecode() { clear(c.pre) }
