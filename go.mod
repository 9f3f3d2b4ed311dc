module simany

go 1.23
