package storage

import "syscall"

// sysFstatat is fstatat(2) under the name package syscall gives it here.
const sysFstatat = syscall.SYS_FSTATAT
