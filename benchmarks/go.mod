module harmony/benchmarks

go 1.23

require harmony v0.0.0

replace harmony => ../
