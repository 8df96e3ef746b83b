module ear/benchmark

go 1.22

require ear v0.0.0

replace ear => ../
