module ccidx/bench

go 1.21

require ccidx v0.0.0

replace ccidx => ../
