module jointstream/benchmark

go 1.22

require jointstream v0.0.0

replace jointstream => ../
