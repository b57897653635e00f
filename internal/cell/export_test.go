package cell

// RowsFilled reads cell.link.rows_filled: the row-slots the process's link
// fills have been asked for so far.
func RowsFilled() int64 { return rowsFilled.Load() }
