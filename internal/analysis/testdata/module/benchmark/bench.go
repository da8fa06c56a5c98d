package benchmark
