module zygos/benchmark

go 1.24

require zygos v0.0.0

replace zygos => ../
