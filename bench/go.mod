module github.com/dsrhaslab/prisma-go/bench

go 1.22

require github.com/dsrhaslab/prisma-go v0.0.0

replace github.com/dsrhaslab/prisma-go => ../
