(** The paper's Stream graft: MD5 fingerprinting (section 3.2 / 5.5),
    written once as a functor over the access regime so the same code
    is measured as unsafe C, Modula-3 (checked), and SFI.

    Heavy array access and unsigned 32-bit arithmetic, exactly the mix
    the paper calls out; every data-buffer read and block-word access
    goes through the regime. *)

let mask = 0xFFFFFFFF

let t_table =
  Array.init 64 (fun i ->
      int_of_float (Float.abs (sin (float_of_int (i + 1))) *. 4294967296.0)
      land mask)

let s_table =
  [|
    7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22;
    5; 9; 14; 20; 5; 9; 14; 20; 5; 9; 14; 20; 5; 9; 14; 20;
    4; 11; 16; 23; 4; 11; 16; 23; 4; 11; 16; 23; 4; 11; 16; 23;
    6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21;
  |]

module Make (A : Access.S) = struct
  let name = A.name

  type ctx = {
    mutable a : int;
    mutable b : int;
    mutable c : int;
    mutable d : int;
    x : int array;
  }

  let init () =
    {
      a = 0x67452301;
      b = 0xefcdab89;
      c = 0x98badcfe;
      d = 0x10325476;
      x = Array.make 16 0;
    }

  let rotl32 v s = ((v lsl s) lor (v lsr (32 - s))) land mask

  let transform ctx (buf : bytes) off =
    let x = ctx.x in
    for i = 0 to 15 do
      let o = off + (i * 4) in
      A.set x i
        (A.get_byte buf o
        lor (A.get_byte buf (o + 1) lsl 8)
        lor (A.get_byte buf (o + 2) lsl 16)
        lor (A.get_byte buf (o + 3) lsl 24))
    done;
    let a = ref ctx.a and b = ref ctx.b and c = ref ctx.c and d = ref ctx.d in
    for i = 0 to 63 do
      let f, k =
        if i < 16 then (!b land !c) lor (lnot !b land !d), i
        else if i < 32 then (!d land !b) lor (lnot !d land !c), (5 * i + 1) mod 16
        else if i < 48 then !b lxor !c lxor !d, (3 * i + 5) mod 16
        else !c lxor (!b lor (lnot !d land mask)), (7 * i) mod 16
      in
      let f = f land mask in
      let sum = (!a + f + A.get x k + Array.unsafe_get t_table i) land mask in
      let a' = (!b + rotl32 sum (Array.unsafe_get s_table i)) land mask in
      a := !d;
      d := !c;
      c := !b;
      b := a'
    done;
    ctx.a <- (ctx.a + !a) land mask;
    ctx.b <- (ctx.b + !b) land mask;
    ctx.c <- (ctx.c + !c) land mask;
    ctx.d <- (ctx.d + !d) land mask

  (** One-shot digest of the first [len] bytes of [buf] (default: all
      of it). The buffer itself stays whole, so a masking regime keeps
      confining reads to its power-of-two container. The trailing
      partial block and padding are staged in a 128-byte tail buffer,
      as the RFC reference does. *)
  let digest ?len (buf : bytes) : string =
    let ctx = init () in
    let len = Option.value len ~default:(Bytes.length buf) in
    let nblocks = len / 64 in
    for blk = 0 to nblocks - 1 do
      transform ctx buf (blk * 64)
    done;
    let rem = len - (nblocks * 64) in
    let tail_len = if rem < 56 then 64 else 128 in
    let tail = Bytes.make tail_len '\000' in
    for i = 0 to rem - 1 do
      A.set_byte tail i (A.get_byte buf ((nblocks * 64) + i))
    done;
    A.set_byte tail rem 0x80;
    let bit_len = len * 8 in
    for i = 0 to 7 do
      A.set_byte tail (tail_len - 8 + i) ((bit_len lsr (8 * i)) land 0xFF)
    done;
    transform ctx tail 0;
    if tail_len = 128 then transform ctx tail 64;
    let out = Bytes.create 16 in
    let put off v =
      for i = 0 to 3 do
        Bytes.set out (off + i) (Char.chr ((v lsr (8 * i)) land 0xFF))
      done
    in
    put 0 ctx.a;
    put 4 ctx.b;
    put 8 ctx.c;
    put 12 ctx.d;
    Bytes.to_string out

  let digest_hex buf = Graft_md5.Md5.to_hex (digest buf)
end

module Unsafe = Make (Access.Unsafe)
module Checked = Make (Access.Checked)
module Checked_nil = Make (Access.Checked_nil)
module Sfi_wj = Make (Access.Sfi_wj)
module Sfi_full = Make (Access.Sfi_full)
