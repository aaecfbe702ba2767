module gompi/benchmark

go 1.22

require gompi v0.0.0

replace gompi => ../
