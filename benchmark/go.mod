module openmpmca/benchmark

go 1.23

require openmpmca v0.0.0

replace openmpmca => ../
