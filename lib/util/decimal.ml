(* Digits are taken from the non-positive [m = -|n|], so [min_int] needs
   no special case. *)
let rec width_neg m w = if m <= -10 then width_neg (m / 10) (w + 1) else w

let width n = if n < 0 then width_neg n 2 else width_neg (-n) 1

let rec blit_neg m b i =
  Bytes.set b i (Char.unsafe_chr (Char.code '0' - (m mod 10)));
  if m <= -10 then blit_neg (m / 10) b (i - 1)

let blit n b ~last =
  if n < 0 then begin
    blit_neg n b last;
    Bytes.set b (last - width n + 1) '-'
  end
  else blit_neg (-n) b last

let append2 s a s' b =
  let ls = String.length s and wa = width a and ls' = String.length s' in
  let buf = Bytes.create (ls + wa + ls' + width b) in
  Bytes.blit_string s 0 buf 0 ls;
  blit a buf ~last:(ls + wa - 1);
  Bytes.blit_string s' 0 buf (ls + wa) ls';
  blit b buf ~last:(Bytes.length buf - 1);
  Bytes.unsafe_to_string buf

let append s n =
  let ls = String.length s in
  let buf = Bytes.create (ls + width n) in
  Bytes.blit_string s 0 buf 0 ls;
  blit n buf ~last:(Bytes.length buf - 1);
  Bytes.unsafe_to_string buf
