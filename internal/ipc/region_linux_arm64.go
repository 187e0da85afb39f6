package ipc

import "syscall"

// sysMemfdCreate is memfd_create(2) under the name package syscall gives it
// here.
const sysMemfdCreate = syscall.SYS_MEMFD_CREATE
